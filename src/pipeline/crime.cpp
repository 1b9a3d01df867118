#include "pipeline/crime.hpp"

#include <algorithm>
#include <charconv>

#include "data/csv.hpp"
#include "data/frame.hpp"
#include "spark/pair_rdd.hpp"
#include "spark/rdd.hpp"
#include "support/check.hpp"

namespace peachy::pipeline {

namespace {

/// In-flight arrest record (after parsing, before the spatial join).
struct ArrestRecord {
  double x = 0.0;
  double y = 0.0;
  std::int32_t year = 0;
  std::int32_t offense = -1;  ///< index into geo::offense_categories()
};

/// Serialize events to the CSV layout of the published datasets.
std::vector<data::CsvRow> events_to_csv(const std::vector<geo::ArrestEvent>& events) {
  std::vector<data::CsvRow> rows;
  rows.reserve(events.size() + 1);
  rows.push_back({"x", "y", "year", "offense"});
  // to_chars(general, 12) is specified as printf("%.12g") in the C locale.
  const auto coord = [](double v) {
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 12);
    return std::string(buf, res.ptr);
  };
  for (const auto& ev : events) {
    rows.push_back({coord(ev.location.x), coord(ev.location.y), std::to_string(ev.year),
                    ev.offense});
  }
  return rows;
}

/// Parse an arrests CSV (as produced above) into records.
std::vector<ArrestRecord> parse_arrests(const std::vector<data::CsvRow>& rows) {
  const data::Frame frame = data::Frame::from_csv(rows);
  const auto& vocab = geo::offense_categories();
  std::vector<ArrestRecord> records;
  if (frame.rows() == 0) return records;
  const std::size_t xc = frame.col_index("x");
  const std::size_t yc = frame.col_index("y");
  const std::size_t year_c = frame.col_index("year");
  const std::size_t offense_c = frame.col_index("offense");
  // Column names and types are checked once here, not once per cell.
  const auto& types = frame.types();
  PEACHY_CHECK(types[xc] != data::ColType::kString && types[yc] != data::ColType::kString,
               "crime: columns 'x' and 'y' must be numeric");
  PEACHY_CHECK(types[year_c] == data::ColType::kInt, "crime: column 'year' is not integer");
  PEACHY_CHECK(types[offense_c] == data::ColType::kString, "crime: column 'offense' is not string");
  const auto num = [&frame](std::size_t r, std::size_t c) {
    const data::Value& v = frame.cell(r, c);
    const auto* d = std::get_if<double>(&v);
    return d != nullptr ? *d : static_cast<double>(std::get<std::int64_t>(v));
  };
  records.reserve(frame.rows());
  for (std::size_t r = 0; r < frame.rows(); ++r) {
    ArrestRecord rec;
    rec.x = num(r, xc);
    rec.y = num(r, yc);
    rec.year = static_cast<std::int32_t>(std::get<std::int64_t>(frame.cell(r, year_c)));
    const std::string& off = std::get<std::string>(frame.cell(r, offense_c));
    const auto it = std::find(vocab.begin(), vocab.end(), off);
    PEACHY_CHECK(it != vocab.end(), "crime: unknown offense '" + off + "'");
    rec.offense = static_cast<std::int32_t>(it - vocab.begin());
    records.push_back(rec);
  }
  return records;
}

std::vector<NtaRate> finalize_rates(std::vector<NtaRate> rates) {
  std::sort(rates.begin(), rates.end(), [](const NtaRate& a, const NtaRate& b) {
    if (a.per_100k != b.per_100k) return a.per_100k > b.per_100k;
    return a.nta < b.nta;
  });
  return rates;
}

}  // namespace

CrimeReport run_crime_pipeline(const CrimeConfig& cfg) {
  PEACHY_CHECK(cfg.partitions >= 1 && cfg.threads >= 1,
               "crime: partitions and threads must be positive");
  CrimeReport report;

  // ---- the four source datasets (generated, serialized, re-parsed) ------
  const geo::SyntheticCity city{cfg.city};
  const auto historic_csv =
      events_to_csv(city.generate_arrests(cfg.historic_arrests, cfg.seed, {2019, 2020}));
  const auto current_csv =
      events_to_csv(city.generate_arrests(cfg.current_arrests, cfg.seed + 1, {cfg.target_year}));
  std::vector<data::CsvRow> population_csv{{"nta", "borough", "population"}};
  for (const auto& nta : city.ntas()) {
    population_csv.push_back({nta.code, nta.borough, std::to_string(nta.population)});
  }
  // (The fourth dataset — NTA boundaries — is the polygon set held by the
  // city's spatial index, the analogue of the GeoJSON boundary file.)

  auto ctx = spark::Context::create(cfg.threads, cfg.partitions);

  std::vector<ArrestRecord> historic, current;
  spark::Rdd<ArrestRecord> all_arrests = spark::parallelize(ctx, std::vector<ArrestRecord>{}, 1);
  spark::Rdd<ArrestRecord> year_arrests = all_arrests;
  std::vector<std::pair<std::string, std::int64_t>> nta_counts;
  std::map<std::string, std::int64_t> populations;
  std::map<std::string, std::string> borough_of;
  for (const auto& nta : city.ntas()) borough_of[nta.code] = nta.borough;

  Pipeline pipe;
  pipe.stage("ingest", [&] {
        historic = parse_arrests(historic_csv);
        current = parse_arrests(current_csv);
        const data::Frame pop = data::Frame::from_csv(population_csv);
        for (std::size_t r = 0; r < pop.rows(); ++r) {
          populations[pop.str(r, "nta")] = pop.integer(r, "population");
        }
        report.events_ingested = historic.size() + current.size();
        all_arrests = spark::parallelize(ctx, historic, cfg.partitions)
                          .union_with(spark::parallelize(ctx, current, cfg.partitions));
      })
      .stage("clean", [&] {
        year_arrests = all_arrests
                           .filter([year = cfg.target_year](
                                       const ArrestRecord& r) { return r.year == year; },
                                   "filter(year)")
                           .cache();
        report.events_in_target_year = year_arrests.count();
      })
      .stage("spatial-join", [&] {
        auto located = year_arrests
                           .map(
                               [&city](const ArrestRecord& r) {
                                 const auto id = city.locate({r.x, r.y});
                                 return std::pair<std::string, std::int64_t>{
                                     id ? city.ntas()[*id].code : std::string{}, 1};
                               },
                               "locate(point→nta)")
                           .filter([](const auto& kv) { return !kv.first.empty(); },
                                   "drop unlocated");
        auto counted = spark::reduce_by_key(located, std::plus<>{});
        nta_counts = counted.collect();
        report.events_located = 0;
        for (const auto& [nta, c] : nta_counts) report.events_located += c;
      })
      .stage("join-population+normalize", [&] {
        auto counts_rdd = spark::parallelize(ctx, nta_counts, cfg.partitions);
        std::vector<std::pair<std::string, std::int64_t>> pop_pairs(populations.begin(),
                                                                    populations.end());
        auto joined = spark::join(counts_rdd, spark::parallelize(ctx, pop_pairs, cfg.partitions));
        std::vector<NtaRate> rates;
        for (const auto& [nta, arrests_pop] : joined.collect()) {
          NtaRate row;
          row.nta = nta;
          row.borough = borough_of.at(nta);
          row.arrests = arrests_pop.first;
          row.population = arrests_pop.second;
          row.per_100k = 1e5 * static_cast<double>(row.arrests) /
                         static_cast<double>(row.population);
          rates.push_back(std::move(row));
        }
        report.rates = finalize_rates(std::move(rates));
      })
      .stage("offense-distribution", [&] {
        const auto& vocab = geo::offense_categories();
        auto by_offense = spark::reduce_by_key(
            year_arrests.map(
                [&vocab](const ArrestRecord& r) {
                  return std::pair<std::string, std::int64_t>{
                      vocab[static_cast<std::size_t>(r.offense)], 1};
                },
                "key by offense"),
            std::plus<>{});
        for (const auto& [offense, c] : by_offense.collect()) report.offenses[offense] = c;
      })
      .stage("borough-year-trend", [&] {
        auto keyed = all_arrests
                         .map(
                             [&city](const ArrestRecord& r) {
                               const auto id = city.locate({r.x, r.y});
                               const std::string borough =
                                   id ? city.ntas()[*id].borough : std::string{};
                               return std::pair<std::string, std::int64_t>{
                                   borough + "|" + std::to_string(r.year), 1};
                             },
                             "key by borough|year")
                         .filter([](const auto& kv) { return kv.first.front() != '|'; },
                                 "drop unlocated");
        for (const auto& [key, c] : spark::reduce_by_key(keyed, std::plus<>{}).collect()) {
          const auto bar = key.find('|');
          report.borough_by_year[key.substr(0, bar)]
                                [static_cast<std::int32_t>(std::stoi(key.substr(bar + 1)))] = c;
        }
      })
      .stage("render-heat-map", [&] {
        std::vector<double> values(city.ntas().size(), 0.0);
        std::map<std::string, std::size_t> id_of;
        for (std::size_t i = 0; i < city.ntas().size(); ++i) id_of[city.ntas()[i].code] = i;
        for (const auto& row : report.rates) values[id_of.at(row.nta)] = row.per_100k;
        const auto raster = geo::rasterize_choropleth(city.index(), values, cfg.raster_width,
                                                      cfg.raster_height);
        report.heat_map_pgm = raster.to_pgm();
        report.heat_map_ascii = raster.to_ascii();
      });
  pipe.run();

  report.stage_timings = pipe.timings();
  report.engine = ctx->stats();
  return report;
}

std::vector<NtaRate> crime_rates_serial(const CrimeConfig& cfg) {
  const geo::SyntheticCity city{cfg.city};
  const auto current = city.generate_arrests(cfg.current_arrests, cfg.seed + 1,
                                             {cfg.target_year});
  const auto historic = city.generate_arrests(cfg.historic_arrests, cfg.seed, {2019, 2020});
  std::vector<geo::ArrestEvent> in_year;
  for (const auto& ev : current) {
    if (ev.year == cfg.target_year) in_year.push_back(ev);
  }
  for (const auto& ev : historic) {
    if (ev.year == cfg.target_year) in_year.push_back(ev);
  }
  const auto counts = city.count_by_nta(in_year);
  std::vector<NtaRate> rates;
  for (std::size_t i = 0; i < city.ntas().size(); ++i) {
    if (counts[i] == 0) continue;  // the pipeline reports observed NTAs only
    NtaRate row;
    row.nta = city.ntas()[i].code;
    row.borough = city.ntas()[i].borough;
    row.arrests = counts[i];
    row.population = city.ntas()[i].population;
    row.per_100k = 1e5 * static_cast<double>(row.arrests) / static_cast<double>(row.population);
    rates.push_back(std::move(row));
  }
  return finalize_rates(std::move(rates));
}

}  // namespace peachy::pipeline

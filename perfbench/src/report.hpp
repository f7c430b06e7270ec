// Run arguments, the metric report, and the two entry points: the
// untraced workload run (end-to-end metrics) and the traced run (per-layer
// metrics).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "util/json.hpp"

namespace perfbench {

inline const std::vector<std::string> kBackends = {"lcrq", "lscq", "lwcq"};

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    Fault fault = Fault::kNone;
    std::string out_dir = ".bench_out";
};

class Report {
  public:
    void add(const std::string& name, double value, const std::string& unit) {
        rows_.push_back({name, value, unit, {}});
    }
    // A metric that could not be measured: null, with the reason.
    void unmeasured(const std::string& name, const std::string& unit, const std::string& why) {
        rows_.push_back({name, std::nullopt, unit, why});
    }

    CheckResult check;
    lcrq::Json record = lcrq::Json::object();  // everything else, for the record file

    // Human-readable lines, the record file, then the one-line result.
    int finish(const Args& args);

  private:
    struct Row {
        std::string name;
        std::optional<double> value;
        std::string unit;
        std::string why;
    };
    std::vector<Row> rows_;
};

// Host facts recorded with every run.
lcrq::Json host_json(double steal);

void run_workload(const Args& args, Report& report);
void run_traced(const Args& args, Report& report);

}  // namespace perfbench

// One driver for the storm and fuzz CLIs under tools/. Each tool declares a
// flag table — one entry per flag: its name and the config field it writes,
// whose type is the flag's kind (a number, an on/off switch, an engine, a
// repeatable list) — and the driver derives the argv parser, the usage
// text, the `tool: k=v ...` header and the replay line from it. The replay
// line carries every flag's current value, so it cannot drift from the
// parser. A tool keeps only what is its own: the run (which prints its
// stats) and its --check-faults / --list-faults bodies.
#pragma once

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>
#include <vector>

#include "src/analysis/admitstorm.h"
#include "src/analysis/chaos.h"
#include "src/analysis/permstorm.h"
#include "src/analysis/rangefuzz.h"
#include "src/analysis/schedstorm.h"
#include "src/analysis/storm.h"
#include "src/analysis/trafficgen.h"

namespace analysis::storm {

// usize fields (worker counts, capacities) ride the u64 alternative.
static_assert(std::is_same_v<xbase::usize, xbase::u64>);

template <typename Config>
struct Flag {
  std::string_view name;  // without the leading "--"
  // u64/u32: --name N (decimal, 0x hex, 0-prefixed octal). bool: --name
  // and --no-name. ExecEngine: --name threaded|legacy. List: --name VALUE,
  // repeatable, each use appends.
  std::variant<xbase::u64 Config::*, xbase::u32 Config::*, bool Config::*,
               ebpf::ExecEngine Config::*, std::vector<std::string> Config::*>
      field;
  xbase::u64 min = 0;  // numbers: the smallest value accepted
  // Switches: only --no-name exists, so the field must default to on.
  bool negated_only = false;

  bool is_switch() const {
    return std::holds_alternative<bool Config::*>(field);
  }
  bool is_list() const {
    return std::holds_alternative<std::vector<std::string> Config::*>(field);
  }
};

template <typename Config>
using FlagTable = std::vector<Flag<Config>>;

// Writes `text` into the flag's field ("on"/"off" for a switch); false when
// it is malformed or out of range.
template <typename Config>
bool Set(const Flag<Config>& flag, Config& config, std::string_view text) {
  return std::visit(
      [&](auto field) {
        auto& slot = config.*field;
        using T = std::remove_cvref_t<decltype(slot)>;
        if constexpr (std::is_same_v<T, bool>) {
          slot = text == "on";
        } else if constexpr (std::is_same_v<T, ebpf::ExecEngine>) {
          slot = text == "legacy" ? ebpf::ExecEngine::kLegacy
                                  : ebpf::ExecEngine::kThreaded;
          return text == "legacy" || text == "threaded";
        } else if constexpr (std::is_same_v<T, std::vector<std::string>>) {
          slot.emplace_back(text);
        } else {
          const std::string digits(text);
          char* end = nullptr;
          errno = 0;
          const auto value = std::strtoull(digits.c_str(), &end, 0);
          if (!std::isdigit(static_cast<unsigned char>(digits[0])) ||
              errno != 0 || *end != '\0' || value < flag.min ||
              value > std::numeric_limits<T>::max()) {
            return false;
          }
          slot = static_cast<T>(value);
        }
        return true;
      },
      flag.field);
}

// The field's current value: one word, or the items of a list.
template <typename Config>
std::vector<std::string> Values(const Flag<Config>& flag,
                                const Config& config) {
  return std::visit(
      [&](auto field) -> std::vector<std::string> {
        const auto& slot = config.*field;
        using T = std::remove_cvref_t<decltype(slot)>;
        if constexpr (std::is_same_v<T, bool>) {
          return {slot ? "on" : "off"};
        } else if constexpr (std::is_same_v<T, ebpf::ExecEngine>) {
          return {slot == ebpf::ExecEngine::kLegacy ? "legacy" : "threaded"};
        } else if constexpr (std::is_same_v<T, std::vector<std::string>>) {
          return slot;
        } else {
          return {std::to_string(slot)};
        }
      },
      flag.field);
}

// Parses argv-style words (no program name) into `config`. A word that
// names no flag goes to `other` when given, and fails the parse otherwise.
template <typename Config>
bool Parse(const FlagTable<Config>& flags,
           std::span<const std::string_view> words, Config& config,
           std::vector<std::string_view>* other = nullptr) {
  for (std::size_t i = 0; i < words.size(); ++i) {
    const std::string_view word = words[i];
    const bool negated = word.starts_with("--no-");
    const std::string_view name = word.substr(negated ? 5 : 2);
    const Flag<Config>* match = nullptr;
    for (const Flag<Config>& flag : flags) {
      if (word.starts_with("--") && flag.name == name &&
          (negated ? flag.is_switch()
                   : !(flag.is_switch() && flag.negated_only))) {
        match = &flag;
      }
    }
    if (match == nullptr) {
      if (other == nullptr) {
        return false;
      }
      other->push_back(word);
    } else if (match->is_switch()) {
      Set(*match, config, negated ? "off" : "on");
    } else if (i + 1 == words.size() || !Set(*match, config, words[++i])) {
      return false;
    }
  }
  return true;
}

// "seed=1 ops=10000 faults=on ..." — every flag, in table order.
template <typename Config>
std::string Header(const FlagTable<Config>& flags, const Config& config) {
  std::string out;
  for (const Flag<Config>& flag : flags) {
    std::string value;
    for (const std::string& item : Values(flag, config)) {
      value += (value.empty() ? "" : ",") + item;
    }
    out += (out.empty() ? "" : " ") + std::string(flag.name) + "=" +
           (value.empty() ? "none" : value);
  }
  return out;
}

// "tool --seed 1 --ops 10000 --no-faults ..." — parses back to `config`.
template <typename Config>
std::string ReplayLine(std::string_view tool, const FlagTable<Config>& flags,
                       const Config& config) {
  std::string out(tool);
  for (const Flag<Config>& flag : flags) {
    const std::string name(flag.name);
    for (const std::string& value : Values(flag, config)) {
      if (!flag.is_switch()) {
        out += " --" + name + " " + value;
      } else if (value == "off") {
        out += " --no-" + name;
      } else if (!flag.negated_only) {
        out += " --" + name;
      }
    }
  }
  return out;
}

// What a run concluded. exit 0 prints "tool: OK — message" (nothing when
// the message is empty), 1 prints "tool: FAIL — message" and the replay
// line, 2 prints "tool: message" to stderr.
struct Outcome {
  int exit = 0;
  std::string message;
};

template <typename Config>
struct Tool {
  std::string_view name;
  FlagTable<Config> flags;
  // Runs the storm, printing its stats unless `quiet`.
  std::function<Outcome(const Config&, bool quiet)> run;
  // Bodies of --check-faults / --list-faults; empty: the tool has none.
  std::function<int()> check_faults;
  std::function<int()> list_faults;
};

template <typename Config>
std::string Usage(const Tool<Config>& tool) {
  std::string out = "usage: " + std::string(tool.name);
  for (const Flag<Config>& flag : tool.flags) {
    const std::string name(flag.name);
    if (flag.is_switch()) {
      out += flag.negated_only ? " [--no-" + name + "]"
                               : " [--[no-]" + name + "]";
    } else if (std::holds_alternative<ebpf::ExecEngine Config::*>(
                   flag.field)) {
      out += " [--" + name + " threaded|legacy]";
    } else if (flag.is_list()) {
      out += " [--" + name + " VALUE]...";
    } else {
      out += " [--" + name + " N]";
    }
  }
  out += tool.check_faults ? " [--check-faults]" : "";
  out += tool.list_faults ? " [--list-faults]" : "";
  return out + " [--quiet]";
}

template <typename Config>
int Main(const Tool<Config>& tool, int argc, char** argv) {
  const std::vector<std::string_view> words(argv + 1, argv + argc);
  Config config;
  std::vector<std::string_view> other;
  bool parsed = Parse(tool.flags, std::span(words), config, &other);
  bool quiet = false;
  bool check_faults = false;
  bool list_faults = false;
  for (const std::string_view word : other) {
    if (word == "--quiet") {
      quiet = true;
    } else if (word == "--check-faults" && tool.check_faults) {
      check_faults = true;
    } else if (word == "--list-faults" && tool.list_faults) {
      list_faults = true;
    } else {
      parsed = false;
    }
  }
  if (!parsed) {
    std::fprintf(stderr, "%s\n", Usage(tool).c_str());
    return 2;
  }
  if (list_faults) {
    return tool.list_faults();
  }
  if (check_faults) {
    return tool.check_faults();
  }

  const std::string name(tool.name);
  std::printf("%s: %s\n", name.c_str(), Header(tool.flags, config).c_str());
  const Outcome outcome = tool.run(config, quiet);
  if (outcome.exit == 0 && !outcome.message.empty()) {
    std::printf("%s: OK — %s\n", name.c_str(), outcome.message.c_str());
  } else if (outcome.exit == 1) {
    std::printf("%s: FAIL — %s\n%s: replay with: %s\n", name.c_str(),
                outcome.message.c_str(), name.c_str(),
                ReplayLine(tool.name, tool.flags, config).c_str());
  } else if (outcome.exit != 0) {
    std::fprintf(stderr, "%s: %s\n", name.c_str(), outcome.message.c_str());
  }
  return outcome.exit;
}

// The supervisor's closing tallies, as every storm prints them.
inline void PrintSupervisor(const Stats& stats) {
  std::printf("  supervisor            %llu failures, %llu trips, "
              "%llu evictions, %llu readmissions\n",
              static_cast<unsigned long long>(stats.supervisor_failures),
              static_cast<unsigned long long>(stats.supervisor_trips),
              static_cast<unsigned long long>(stats.supervisor_evictions),
              static_cast<unsigned long long>(stats.supervisor_readmissions));
}

// ---- the six tools' flag tables -------------------------------------------

inline FlagTable<ChaosConfig> ChaosFlags() {
  return {{"seed", &ChaosConfig::seed},
          {"ops", &ChaosConfig::ops},
          {"cpus", &ChaosConfig::cpus, /*min=*/1},
          {"faults", &ChaosConfig::toggle_faults},
          {"engine", &ChaosConfig::engine}};
}

inline FlagTable<SchedStormConfig> SchedStormFlags() {
  return {{"seed", &SchedStormConfig::seed},
          {"ops", &SchedStormConfig::ops},
          {"cpus", &SchedStormConfig::cpus, /*min=*/1},
          {"faults", &SchedStormConfig::toggle_faults}};
}

inline FlagTable<AdmitStormConfig> AdmitStormFlags() {
  return {{"seed", &AdmitStormConfig::seed},
          {"rounds", &AdmitStormConfig::rounds},
          {"ops", &AdmitStormConfig::ops_per_round},
          {"workers", &AdmitStormConfig::workers},
          {"queue", &AdmitStormConfig::queue_capacity},
          {"cache", &AdmitStormConfig::cache_enabled, 0,
           /*negated_only=*/true},
          {"faults", &AdmitStormConfig::toggle_faults, 0,
           /*negated_only=*/true},
          {"engine", &AdmitStormConfig::engine}};
}

inline FlagTable<PermStormConfig> PermStormFlags() {
  return {{"seed", &PermStormConfig::seed},
          {"ops", &PermStormConfig::ops},
          {"faults", &PermStormConfig::toggle_faults}};
}

inline FlagTable<TrafficConfig> TrafficFlags() {
  return {{"seed", &TrafficConfig::seed},
          {"events", &TrafficConfig::events},
          {"cpus", &TrafficConfig::cpus, /*min=*/1}};
}

inline FlagTable<RangeFuzzOptions> RangeFuzzFlags() {
  return {{"seed", &RangeFuzzOptions::seed},
          {"progs", &RangeFuzzOptions::programs},
          {"execs", &RangeFuzzOptions::execs},
          {"body", &RangeFuzzOptions::body_len},
          {"fault", &RangeFuzzOptions::verifier_faults},
          {"replay", &RangeFuzzOptions::replay_program_seed}};
}

}  // namespace analysis::storm

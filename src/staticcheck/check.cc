#include "src/staticcheck/check.h"

#include <algorithm>
#include <tuple>

#include "src/ebpf/disasm.h"
#include "src/staticcheck/cfg.h"
#include "src/staticcheck/dataflow.h"
#include "src/staticcheck/locks.h"
#include "src/staticcheck/termination.h"
#include "src/xbase/strfmt.h"

namespace staticcheck {

std::string_view SeverityName(Severity severity) {
  return severity == Severity::kError ? "error" : "warning";
}

std::string_view PassName(Pass pass) {
  switch (pass) {
    case Pass::kCfg:
      return "cfg";
    case Pass::kDataflow:
      return "dataflow";
    case Pass::kTermination:
      return "termination";
    case Pass::kLocks:
      return "locks";
  }
  return "?";
}

xbase::usize Report::errors() const {
  xbase::usize count = 0;
  for (const Finding& finding : findings) {
    if (finding.severity == Severity::kError) {
      ++count;
    }
  }
  return count;
}

bool Report::HasRule(std::string_view rule) const {
  for (const Finding& finding : findings) {
    if (finding.rule == rule) {
      return true;
    }
  }
  return false;
}

xbase::Result<Report> RunChecks(const ebpf::Program& prog,
                                const CheckOptions& opts) {
  Report report;
  XB_ASSIGN_OR_RETURN(Cfg cfg, BuildCfg(prog, report.findings));
  report.block_count = static_cast<u32>(cfg.blocks.size());
  report.back_edge_count = static_cast<u32>(cfg.back_edges.size());

  DataflowResult dataflow = RunDataflow(prog, cfg, opts, report.findings);
  report.analysis_complete = dataflow.complete;
  report.dataflow_iterations = dataflow.iterations;
  RunTermination(prog, cfg, report.findings);
  RunLocks(prog, cfg, opts, report.findings);

  std::sort(report.findings.begin(), report.findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.pc, a.pass, a.rule) <
                     std::tie(b.pc, b.pass, b.rule);
            });
  return report;
}

std::string FormatReport(const ebpf::Program& prog, const Report& report) {
  std::string out = xbase::StrFormat(
      "staticcheck: %zu finding(s), %zu error(s), %u block(s), %u back "
      "edge(s)%s\n",
      report.findings.size(), report.errors(), report.block_count,
      report.back_edge_count,
      report.analysis_complete ? "" : " [incomplete]");
  for (const Finding& finding : report.findings) {
    std::string disasm = finding.pc < prog.len()
                             ? ebpf::DisasmInsn(prog.insns[finding.pc])
                             : std::string("<no insn>");
    out += xbase::StrFormat(
        "  pc %4u: [%.*s/%.*s] %s: %s  ; %s\n", finding.pc,
        static_cast<int>(PassName(finding.pass).size()),
        PassName(finding.pass).data(),
        static_cast<int>(SeverityName(finding.severity).size()),
        SeverityName(finding.severity).data(), finding.rule.c_str(),
        finding.message.c_str(), disasm.c_str());
  }
  return out;
}

}  // namespace staticcheck

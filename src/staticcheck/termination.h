// Termination analysis: natural loops from CFG back edges, a
// progress-register heuristic for loop boundedness, and a static
// bpf_loop iteration-product estimate checked against the runtime
// budget. The verifier answers the same question by enumerating states;
// this pass answers it structurally, so the two can disagree — which is
// exactly what the differential oracle wants to observe.
#pragma once

#include <vector>

#include "src/staticcheck/cfg.h"

namespace staticcheck {

void RunTermination(const ebpf::Program& prog, const Cfg& cfg,
                    std::vector<Finding>& findings);

}  // namespace staticcheck

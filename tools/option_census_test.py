#!/usr/bin/env python3
"""Self-test of tools/option_census.py on planted source trees.

Each case copies the census into a fresh temporary tree (the script finds
its root from its own path), writes a few C++ files, runs it and checks the
exit code: 1 for an uncalled function, even one whose name appears in a
comment or a string; 0 when the only caller is a test, an example or the
function's own .cc; 1 for an option field that nothing sets. The output
must name what failed.

Usage: python3 tools/option_census_test.py
"""

import pathlib
import shutil
import subprocess
import sys
import tempfile

CENSUS = pathlib.Path(__file__).resolve().parent / "option_census.py"

# One option struct whose field a tool sets, and one called function.
BASE = {
    "src/demo.h": """#pragma once
namespace demo {
struct DemoOptions {
  int depth = 0;
};
int Used(const DemoOptions& opts);
}  // namespace demo
""",
    "src/demo.cc": """#include "src/demo.h"
namespace demo {
int Used(const DemoOptions& opts) { return opts.depth; }
}  // namespace demo
""",
    "tools/main.cc": """#include "src/demo.h"
int main() {
  demo::DemoOptions opts;
  opts.depth = 3;
  return demo::Used(opts);
}
""",
    "src/planted.h": """#pragma once
namespace demo {
// Planted() is declared here and defined in planted.cc.
int Planted();
}  // namespace demo
""",
    "src/planted.cc": """#include "src/planted.h"
namespace demo {
int Planted() { return 1; }
}  // namespace demo
""",
}

CASES = [
    ("uncalled function", {}, 1, "Planted  (src/planted.h"),
    ("name only in a comment",
     {"tools/note.cc": "// Call demo::Planted() here one day.\n"}, 1,
     "Planted  (src/planted.h"),
    ("name only in a string",
     {"tools/note.cc": 'const char* kNote = "demo::Planted()";\n'}, 1,
     "Planted  (src/planted.h"),
    ("called from a test",
     {"tests/planted_test.cc":
      '#include "src/planted.h"\nint Check() { return demo::Planted(); }\n'},
     0, "OK"),
    ("called from an example",
     {"examples/planted.cpp":
      '#include "src/planted.h"\nint main() { return demo::Planted(); }\n'},
     0, "OK"),
    ("called from its own .cc",
     {"src/planted.cc": """#include "src/planted.h"
namespace demo {
int Planted() { return 1; }
static int Twice() { return Planted() + Planted(); }
}  // namespace demo
"""}, 0, "OK"),
    ("option field nothing sets",
     {"tools/main.cc": """#include "src/demo.h"
#include "src/planted.h"
int main() { return demo::Used(demo::DemoOptions{}) + demo::Planted(); }
"""}, 1, "DemoOptions::depth"),
]


def run_case(files):
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        (root / "tools").mkdir()
        shutil.copy(CENSUS, root / "tools" / CENSUS.name)
        for rel, text in files.items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        proc = subprocess.run(
            [sys.executable, str(root / "tools" / CENSUS.name)],
            capture_output=True, text=True)
        return proc.returncode, proc.stdout


def main():
    failures = 0
    for name, files, want, names in CASES:
        code, out = run_case({**BASE, **files})
        ok = code == want and names in out
        print(f"{'ok  ' if ok else 'FAIL'} {name}: exit {code}, want {want} "
              f"naming {names}")
        if not ok:
            failures += 1
            print("     " + out.replace("\n", "\n     "))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

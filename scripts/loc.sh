#!/usr/bin/env bash
# Lines of product source (`just loc`): every `.rs` file under `crates/*/src`
# outside `crates/bench`, the figure ROADMAP tracks. Prints the total, then
# the split: a file's lines from its first top-level `#[cfg(test)]` that is
# followed by a `mod` line to its end are unit tests, the rest is product.
# Last, for the ledger only (never a gate): the lines of every `.rs` file
# under `tests/`, `examples/` and `crates/bench`, which the total leaves out.
set -euo pipefail

cd "$(git rev-parse --show-toplevel)"
find crates -path crates/bench -prune -o -path '*/src/*' -name '*.rs' -print | sort |
    awk '{
        file = $0; in_test = 0; prev = ""
        while ((getline line < file) > 0) {
            if (!in_test && prev == "#[cfg(test)]" && line ~ /^(pub(\(crate\))? )?mod /) {
                in_test = 1; product--; tests++
            }
            if (in_test) tests++; else product++
            prev = line
        }
        close(file)
    }
    END {
        printf "%d lines (crates/*/src outside crates/bench)\n", product + tests
        printf "%d product\n%d unit tests\n", product, tests
    }'
find tests examples crates/bench -name '*.rs' -print0 | sort -z | xargs -0 cat |
    awk 'END { printf "%d outside the count (tests/, examples/, crates/bench)\n", NR }'

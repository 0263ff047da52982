#!/usr/bin/env bash
# Panic sites in product source (`just panics`): lines of `crates/*/src`
# outside `crates/bench` that can panic — `unwrap()`, `expect(`, `panic!`,
# `unreachable!` or `assert` (which takes in `debug_assert*`). Product is
# `scripts/loc.sh`'s split: a file's lines from its first top-level
# `#[cfg(test)]` followed by a `mod` line to its end are unit tests and are
# not counted; neither are `//` comment lines (doc examples included).
# Prints the count per crate and the total, and fails when the total is
# above CEILING. Lower CEILING when a change removes sites; never raise it
# to make room for new ones.
set -euo pipefail

CEILING=53

cd "$(git rev-parse --show-toplevel)"
find crates -path crates/bench -prune -o -path '*/src/*' -name '*.rs' -print | sort |
    awk -v ceiling="$CEILING" '{
        file = $0; in_test = 0; prev = ""
        split(file, parts, "/"); crate = parts[2]
        if (!(crate in count)) { count[crate] = 0; crates[++n] = crate }
        while ((getline line < file) > 0) {
            if (!in_test && prev == "#[cfg(test)]" && line ~ /^(pub(\(crate\))? )?mod /) in_test = 1
            prev = line
            if (in_test || line ~ /^[ \t]*\/\//) continue
            if (line ~ /unwrap\(\)|expect\(|panic!|unreachable!|assert/) { count[crate]++; total++ }
        }
        close(file)
    }
    END {
        for (i = 1; i <= n; i++) printf "%-10s %d\n", crates[i], count[crates[i]]
        printf "%-10s %d (ceiling %d)\n", "total", total, ceiling
        fflush()
        if (total > ceiling) {
            printf "error: %d product panic sites, above the ceiling of %d\n", total, ceiling > "/dev/stderr"
            exit 1
        }
    }'

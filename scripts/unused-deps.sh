#!/usr/bin/env bash
# Unused workspace dependencies fail the gate (`just unused-deps`).
#
# For every `pgc-x` a manifest lists under [dependencies] or
# [dev-dependencies] (the root package and each crates/*), `pgc_x` must occur
# in that package's src/, tests/ or examples/. Plain grep, because nothing
# may be downloaded here (no cargo-udeps, no cargo-machete).
set -euo pipefail

cd "$(git rev-parse --show-toplevel)"
status=0
for manifest in Cargo.toml crates/*/Cargo.toml; do
    dir=$(dirname "$manifest")
    deps=$(awk '/^\[/ { on = ($0 == "[dependencies]" || $0 == "[dev-dependencies]") }
                on && /^pgc-[a-z]+ *=/ { print $1 }' "$manifest")
    sources=()
    for sub in src tests examples; do
        [ -d "$dir/$sub" ] && sources+=("$dir/$sub")
    done
    for dep in $deps; do
        if ! grep -rqw "${dep//-/_}" "${sources[@]}"; then
            echo "$manifest: $dep is never named in ${sources[*]}"
            status=1
        fi
    done
done
exit $status

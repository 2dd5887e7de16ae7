#!/usr/bin/env bash
# Counts the workspace's non-test Rust lines: in every `.rs` file under
# `crates/*/src` and `src/`, the non-blank lines that do not start with `//`,
# up to the file's first column-0 `#[cfg(test)]` that gates an inline module
# or item. A `#[cfg(test)]` followed by `mod name;` declares a test module in
# its own file: it does not end the count, and that file is skipped whole.
#
# Usage (from anywhere in the checkout):
#   tools/nontest-loc.sh          # total only
#   tools/nontest-loc.sh -v       # per-file counts, then the total
set -euo pipefail
cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"
find crates/*/src src -name '*.rs' | sort | awk -v verbose="${1:-}" '
    # The file a `mod name;` in `file` declares: next to lib.rs/main.rs/mod.rs,
    # else in the directory named after the declaring file.
    function child(file, name,   dir) {
        dir = file
        if (file ~ /\/(lib|main|mod)\.rs$/) sub(/\/[^\/]*$/, "", dir)
        else sub(/\.rs$/, "", dir)
        return dir "/" name ".rs " dir "/" name "/mod.rs"
    }
    { files[++n] = $0 }
    END {
        # Pass 1: the files that `#[cfg(test)] mod name;` declares.
        for (i = 1; i <= n; i++) {
            gated = 0
            while ((getline line < files[i]) > 0) {
                if (gated && match(line, /^[ \t]*(pub[^ ]* )?mod [A-Za-z0-9_]+;/)) {
                    decl = line
                    sub(/^[ \t]*(pub[^ ]* )?mod /, "", decl)
                    sub(/;.*/, "", decl)
                    split(child(files[i], decl), paths, " ")
                    skip[paths[1]] = 1
                    skip[paths[2]] = 1
                }
                gated = (line ~ /^#\[cfg\(test\)\]/)
            }
            close(files[i])
        }
        # Pass 2: count.
        total = 0
        for (i = 1; i <= n; i++) {
            if (files[i] in skip) continue
            count = 0
            gate = 0
            while ((getline line < files[i]) > 0) {
                if (gate) {
                    if (line !~ /^[ \t]*(pub[^ ]* )?mod [A-Za-z0-9_]+;/) break
                    gate = 0
                    continue
                }
                if (line ~ /^#\[cfg\(test\)\]/) { gate = 1; continue }
                if (line ~ /^[ \t]*$/ || line ~ /^[ \t]*\/\//) continue
                count++
            }
            close(files[i])
            if (verbose == "-v") printf "%6d %s\n", count, files[i]
            total += count
        }
        print total
    }'

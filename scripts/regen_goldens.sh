#!/usr/bin/env bash
# Regenerates the committed golden digests:
#   tests/goldens/scenario_conformance.txt    (conformance matrix)
#   tests/goldens/controller_convergence.txt  (closed-loop decision traces)
#   tests/goldens/fleet_eviction.txt          (budgeted fleet eviction digests)
#   tests/goldens/figures_trace.txt           (Figs. 12-16 per-bin mean/std series)
#   crates/sim/tests/goldens/figures_model.txt (Figs. 1-11 as printed values)
#
# Golden digests pin the *results* of the scenario × sampler × top-k
# conformance matrix, of the rate controllers' per-bin decision traces and
# of the trace-driven figures as `reproduce` prints them,
# so they must only ever change together with the code change that
# intentionally moved them (e.g. a new RNG stream, a new matrix cell, a
# retuned controller). To keep every regeneration reviewable, this script
# refuses to run on a dirty working tree: regenerate on a clean checkout of
# your change, and the golden diff lands in the same commit series as the
# code that caused it.
#
# Usage: scripts/regen_goldens.sh

set -euo pipefail
cd "$(dirname "$0")/.."

if [ -n "$(git status --porcelain)" ]; then
    echo "error: working tree is dirty — commit or stash first so the golden" >&2
    echo "       regeneration is its own reviewable change" >&2
    git status --short >&2
    exit 1
fi

REGEN_GOLDENS=1 cargo test -p flowrank-tests --test scenario_conformance -- --nocapture
REGEN_GOLDENS=1 cargo test --release -p flowrank-tests --test controller_convergence -- --nocapture
REGEN_GOLDENS=1 cargo test -p flowrank-tests --test fleet_conformance -- --nocapture
REGEN_GOLDENS=1 cargo test -p flowrank-tests --test figure_goldens -- --nocapture
REGEN_GOLDENS=1 cargo test --release -p flowrank-sim --test reproduce_cli model_figures -- --nocapture

if git diff --quiet -- tests/goldens/ crates/sim/tests/goldens/; then
    echo "goldens unchanged — the matrix still digests to the committed values"
else
    echo "goldens updated:"
    git --no-pager diff --stat -- tests/goldens/ crates/sim/tests/goldens/
    echo "review the diff and commit it together with the change that moved it"
fi

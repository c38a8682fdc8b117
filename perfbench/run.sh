#!/usr/bin/env bash
# Build the benchmark from source, then run it; every argument goes to
# perf.exe.  Run from anywhere inside a checkout:
#
#   bash perfbench/run.sh --workload fig6 --seed 1 --seconds 25 --trace 0
#
# The first call builds (about a minute); later calls reuse _build/.
set -euo pipefail
cd "$(dirname "$0")/.."

# The simulator reads CHEX86_* (scale, workload subset, fault injection)
# and the OCaml runtime reads OCAMLRUNPARAM; a benchmark run must not
# inherit either.
for var in $(compgen -e); do
  case "$var" in CHEX86_*) unset "$var" ;; esac
done
unset OCAMLRUNPARAM

command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)" || true
# Keep dune's shared cache out of the build: everything stays in _build/.
export DUNE_CACHE=disabled
dune build --root . ./perfbench/perf.exe ./bin/chex86_worker.exe 1>&2
exec ./_build/default/perfbench/perf.exe "$@"

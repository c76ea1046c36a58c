#!/usr/bin/env bash
# mtlbsim correctness driver.
#
# Runs, in order:
#   1. the warnings-as-errors build,
#   2. the plain test suite, which includes the ownership-contract
#      check over the build's objects (ctest contract_tree_clean),
#   3. the address+UB-sanitized test suite,
#   4. (optional, --model) the bounded model checker, depth 4,
#   5. (optional, --tsan) the thread-sanitized test suite,
#   6. (optional, --tidy) clang-tidy over src/.
#
# Usage: tools/check.sh [--lint] [--model] [--tsan] [--tidy]
#                       [--labels L] [-j N]
#
# --lint runs ONLY the `lint` ctest label (the pre-commit gate): the
# contract check, its fixtures and the compile-fail cases. The check
# reads compiled objects, so the gate first builds the default preset
# incrementally; it costs that build.
# --model appends the model-checker step to the sequence.
# --labels L restricts every ctest invocation to tests carrying the
# given ctest LABEL (unit | property | golden | fuzz | lint | model |
# batch | multicore; comma/regex accepted, passed straight to
# `ctest -L`).
#
# Unlike a plain `set -e` script, the driver keeps going after a
# failing step (steps whose build prerequisite failed are skipped),
# prints an explicit per-step status table at the end, and exits
# nonzero when any step failed — one run reports *all* broken
# dimensions, not just the first.

set -uo pipefail

cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 4)
run_tsan=0
run_tidy=0
run_model=0
lint_only=0
labels=""
while [ $# -gt 0 ]; do
    case "$1" in
        --lint) lint_only=1 ;;
        --model) run_model=1 ;;
        --tsan) run_tsan=1 ;;
        --tidy) run_tidy=1 ;;
        --labels) shift; labels=$1 ;;
        -j) shift; jobs=$1 ;;
        *) echo "usage: tools/check.sh [--lint] [--model] [--tsan]" \
                "[--tidy] [--labels L] [-j N]" >&2
           exit 2 ;;
    esac
    shift
done

label_args=()
if [ -n "$labels" ]; then
    label_args=(-L "$labels")
fi

# ---- explicit status aggregation ----------------------------------
step_names=()
step_states=()
overall=0

step() { printf '\n== %s ==\n' "$*"; }

# record NAME ok|FAIL|skipped
record() {
    step_names+=("$1")
    step_states+=("$2")
    if [ "$2" = FAIL ]; then
        overall=1
    fi
}

summary() {
    printf '\n== summary ==\n'
    local i
    for i in "${!step_names[@]}"; do
        printf '  %-40s %s\n' "${step_names[$i]}" "${step_states[$i]}"
    done
    if [ "$overall" = 0 ]; then
        printf '\nall checks passed\n'
    else
        printf '\nSOME CHECKS FAILED\n' >&2
    fi
    exit "$overall"
}

# ---- steps ---------------------------------------------------------

if [ "$lint_only" = 1 ]; then
    step "contract check (ctest -L lint)"
    if cmake --preset default >/dev/null &&
           cmake --build --preset default -j "$jobs" &&
           ctest --preset default -j "$jobs" -L lint; then
        record "contract check" ok
    else
        record "contract check" FAIL
    fi
    summary
fi

step "warnings-as-errors build"
if cmake --preset werror >/dev/null &&
       cmake --build --preset werror -j "$jobs"; then
    record "werror build" ok
else
    record "werror build" FAIL
fi

step "test suite (default build)"
default_built=0
if cmake --preset default >/dev/null &&
       cmake --build --preset default -j "$jobs"; then
    default_built=1
    if ctest --preset default -j "$jobs" "${label_args[@]}"; then
        record "tests (default)" ok
    else
        record "tests (default)" FAIL
    fi
else
    record "tests (default)" FAIL
fi

step "test suite (address + undefined sanitizers)"
if cmake --preset asan-ubsan >/dev/null &&
       cmake --build --preset asan-ubsan -j "$jobs"; then
    if ctest --preset asan-ubsan -j "$jobs" "${label_args[@]}"; then
        record "tests (asan+ubsan)" ok
    else
        record "tests (asan+ubsan)" FAIL
    fi
else
    record "tests (asan+ubsan)" FAIL
fi

if [ "$run_model" = 1 ]; then
    step "bounded model check (depth 4)"
    if [ "$default_built" = 1 ]; then
        if cmake --build --preset default -j "$jobs" \
                --target modelcheck &&
               build/tools/modelcheck --depth 4; then
            record "model check" ok
        else
            record "model check" FAIL
        fi
    else
        record "model check" skipped
    fi
fi

if [ "$run_tsan" = 1 ]; then
    step "test suite (thread sanitizer)"
    if cmake --preset tsan >/dev/null &&
           cmake --build --preset tsan -j "$jobs"; then
        if ctest --preset tsan -j "$jobs" "${label_args[@]}"; then
            record "tests (tsan)" ok
        else
            record "tests (tsan)" FAIL
        fi
    else
        record "tests (tsan)" FAIL
    fi
fi

if [ "$run_tidy" = 1 ]; then
    step "clang-tidy"
    if ! command -v clang-tidy >/dev/null; then
        echo "clang-tidy not found; skipping" >&2
        record "clang-tidy" skipped
    else
        if cmake -B build-tidy -S . \
                -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null &&
               find src -name '*.cc' -print0 |
                   xargs -0 -P "$jobs" -n 4 \
                       clang-tidy -p build-tidy --quiet; then
            record "clang-tidy" ok
        else
            record "clang-tidy" FAIL
        fi
    fi
fi

summary

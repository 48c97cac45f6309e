#!/usr/bin/env bash
# Static-analysis driver: clang-tidy (curated .clang-tidy profile) +
# determinism lint + optional changed-files format check.
#
#   tools/lint.sh [options]
#
#   --build-dir DIR        compile database location (default: build/lint
#                          if present, else build). The database is
#                          generated by any CMake configure — every preset
#                          exports compile_commands.json.
#   --require-clang-tidy   fail (instead of skip with a warning) when
#                          clang-tidy is not installed. CI sets this; local
#                          runs degrade gracefully on clang-less machines.
#   --format-base REF      also clang-format-check the files changed since
#                          merge-base with REF (e.g. origin/main). Only
#                          changed files are checked, so adopting
#                          .clang-format caused no repo-wide reformat.
#   --skip-tidy            run only the determinism lint (and format check
#                          if requested).
#
# Exit status is non-zero iff any executed layer found a violation (or a
# required tool is missing). Layers that merely *ran nothing* because a
# tool is absent warn and continue — the lint CI job is the enforcement
# point for those.
set -u

cd "$(dirname "$0")/.."

BUILD_DIR=""
REQUIRE_TIDY=0
FORMAT_BASE=""
SKIP_TIDY=0
while [ $# -gt 0 ]; do
  case "$1" in
    --build-dir) BUILD_DIR="$2"; shift 2 ;;
    --require-clang-tidy) REQUIRE_TIDY=1; shift ;;
    --format-base) FORMAT_BASE="$2"; shift 2 ;;
    --skip-tidy) SKIP_TIDY=1; shift ;;
    *) echo "unknown option: $1" >&2; exit 2 ;;
  esac
done

FAILED=0

# ---------------------------------------------------------------------------
# Layer 1: determinism lint.
#
# The repo's core contract is bit-identical results across thread counts,
# batch shapes, and replays (see README "Serving layer"); these greps fail
# the build on the constructs that historically break that class of
# guarantee. Grep-level checks are deliberate: they need no toolchain, run
# anywhere, and the banned constructs have no legitimate use in this tree
# (randomness goes through util/rng.h with explicit seeds; timing through
# util/timer.h / steady_clock, which is measurement, not results).
# ---------------------------------------------------------------------------
echo "== determinism lint =="
DET_DIRS="src bench tests examples"
det_fail() {
  FAILED=1
  echo "determinism lint: $1" >&2
  echo "$2" >&2
}

# Banned: libc PRNG — unseeded/global state, not reproducible across
# platforms. Use tfsn::Rng (SplitMix64, explicit seed).
HITS=$(grep -rnE '(^|[^[:alnum:]_])(std::)?s?rand[[:space:]]*\(' $DET_DIRS \
  --include='*.cc' --include='*.h' | grep -v 'lint-allow' || true)
[ -n "$HITS" ] && det_fail "rand()/srand() is banned (use util/rng.h)" "$HITS"

# Banned: wall-clock seeding — results would depend on when, not what.
HITS=$(grep -rnE 'time[[:space:]]*\([[:space:]]*(nullptr|NULL|0)[[:space:]]*\)' \
  $DET_DIRS --include='*.cc' --include='*.h' | grep -v 'lint-allow' || true)
[ -n "$HITS" ] && det_fail "time(nullptr) seeding is banned" "$HITS"

# Banned: std::random_device — nondeterministic by definition (and the
# argless form is the classic accidental-nondeterminism seed).
HITS=$(grep -rnE 'std::random_device' $DET_DIRS \
  --include='*.cc' --include='*.h' | grep -v 'lint-allow' || true)
[ -n "$HITS" ] && det_fail "std::random_device is banned (use util/rng.h)" "$HITS"

# Banned in result-bearing modules: iterating an unordered container —
# its order varies across libstdc++ versions, hash seeds, and insertion
# histories, which silently breaks the bit-identical-results contract.
# (Lookups are fine and used; src/ iterates only ordered structures.)
# Heuristic: range-for whose range expression mentions an unordered
# container; annotate a verified-order-insensitive loop with
# `// lint-allow: order-insensitive` to pass.
HITS=$(grep -rnE 'for[[:space:]]*\(.*:[^)]*unordered_(map|set)' \
  src/compat src/team src/serve --include='*.cc' --include='*.h' \
  | grep -v 'lint-allow' || true)
[ -n "$HITS" ] && det_fail \
  "unordered-container iteration in a result-bearing module" "$HITS"

[ "$FAILED" -eq 0 ] && echo "determinism lint: clean"

# ---------------------------------------------------------------------------
# Layer 1.5: fault-point registry lint.
#
# Every TFSN_FAULT_POINT("name") call site in src/ must (a) use a name no
# other call site uses — a shared name makes FireCount/schedules ambiguous
# and the fault matrix unable to prove a specific path fired — (b) be
# documented in README.md's fault-point catalog, so the harness's coverage
# is auditable without reading the sources, (c) carry a known subsystem
# prefix so schedules stay greppable per layer, and (d) appear in at least
# one test under tests/ — an unexercised fault point is dead robustness
# theater.
# ---------------------------------------------------------------------------
# Subsystem prefixes with fault points today. Extending a prefix means a
# new injectable layer: add it here AND a catalog section in README.md.
FAULT_PREFIXES='dist|row_cache|row_spill|task_view'
echo "== fault-point lint =="
POINTS=$(grep -rhoE 'TFSN_FAULT_POINT\("[^"]+"\)' src --include='*.cc' \
  --include='*.h' | sed -E 's/TFSN_FAULT_POINT\("([^"]+)"\)/\1/' | sort)
if [ -z "$POINTS" ]; then
  echo "fault-point lint: no call sites found" >&2
  FAILED=1
else
  DUPES=$(echo "$POINTS" | uniq -d)
  if [ -n "$DUPES" ]; then
    FAILED=1
    echo "fault-point lint: names used by more than one call site:" >&2
    echo "$DUPES" >&2
    grep -rnE "TFSN_FAULT_POINT\(\"($(echo "$DUPES" | paste -sd'|' -))\"\)" \
      src --include='*.cc' --include='*.h' >&2
  fi
  BAD=0
  for p in $(echo "$POINTS" | uniq); do
    if ! grep -q "\`$p\`" README.md; then
      FAILED=1
      BAD=1
      echo "fault-point lint: \`$p\` is not documented in README.md's" \
           "fault-point catalog" >&2
    fi
    if ! echo "$p" | grep -qE "^($FAULT_PREFIXES)\.[a-z0-9_]+$"; then
      FAILED=1
      BAD=1
      echo "fault-point lint: \`$p\` has no known subsystem prefix" \
           "(expected <$FAULT_PREFIXES>.<snake_case>)" >&2
    fi
    if ! grep -rq "$p" tests --include='*.cc'; then
      FAILED=1
      BAD=1
      echo "fault-point lint: \`$p\` is not exercised by any test in tests/" >&2
    fi
  done
  [ -n "$DUPES" ] || [ "$BAD" -eq 1 ] || \
    echo "fault-point lint: $(echo "$POINTS" | wc -l) points, unique," \
         "documented, prefixed, and tested"
fi

# ---------------------------------------------------------------------------
# Layer 2: clang-tidy over the curated .clang-tidy profile.
# ---------------------------------------------------------------------------
if [ "$SKIP_TIDY" -eq 0 ]; then
  echo "== clang-tidy =="
  TIDY="${CLANG_TIDY:-clang-tidy}"
  if ! command -v "$TIDY" >/dev/null 2>&1; then
    if [ "$REQUIRE_TIDY" -eq 1 ]; then
      echo "clang-tidy not found and --require-clang-tidy set" >&2
      FAILED=1
    else
      echo "clang-tidy not found; skipping (CI runs it — install clang-tidy" \
           "to run locally)" >&2
    fi
  else
    if [ -z "$BUILD_DIR" ]; then
      if [ -f build/lint/compile_commands.json ]; then BUILD_DIR=build/lint
      else BUILD_DIR=build; fi
    fi
    if [ ! -f "$BUILD_DIR/compile_commands.json" ]; then
      echo "no compile database in '$BUILD_DIR' — configure first, e.g." >&2
      echo "  cmake --preset lint   (or any preset; all export the DB)" >&2
      FAILED=1
    else
      FILES=$(find src bench tests examples -name '*.cc' \
        ! -name 'thread_safety_negative.cc' | sort)
      JOBS=$(nproc 2>/dev/null || echo 2)
      echo "$FILES" | xargs -P "$JOBS" -n 8 "$TIDY" -p "$BUILD_DIR" --quiet \
        || FAILED=1
      [ "$FAILED" -eq 0 ] && echo "clang-tidy: clean"
    fi
  fi
fi

# ---------------------------------------------------------------------------
# Layer 3 (opt-in): format check, changed files only.
# ---------------------------------------------------------------------------
if [ -n "$FORMAT_BASE" ]; then
  echo "== clang-format (files changed since $FORMAT_BASE) =="
  FMT="${CLANG_FORMAT:-clang-format}"
  if ! command -v "$FMT" >/dev/null 2>&1; then
    echo "clang-format not found; skipping format check" >&2
  else
    MERGE_BASE=$(git merge-base "$FORMAT_BASE" HEAD 2>/dev/null || true)
    if [ -z "$MERGE_BASE" ]; then
      echo "cannot resolve merge-base with '$FORMAT_BASE'; skipping" >&2
    else
      CHANGED=$(git diff --name-only --diff-filter=ACMR "$MERGE_BASE" -- \
        '*.cc' '*.h' | grep -E '^(src|bench|tests|examples)/' || true)
      if [ -z "$CHANGED" ]; then
        echo "no changed C++ files"
      else
        echo "$CHANGED" | xargs "$FMT" --dry-run -Werror || FAILED=1
        [ "$FAILED" -eq 0 ] && echo "clang-format: clean"
      fi
    fi
  fi
fi

exit "$FAILED"

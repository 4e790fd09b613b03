#!/usr/bin/env bash
# check-doc-refs.sh — fail when DESIGN.md, README.md, docs/API.md or the
# verify skill references a repository path that does not exist, or when godoc references a
# DESIGN.md section that is missing (the class of rot this repo had when
# runner.go cited a DESIGN.md §4 that was never written).
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

# 1. Path-shaped references in the docs must exist. Only paths under the
#    tracked top-level trees are checked, so generated artifacts
#    (out.csv, headline.json, ...) never false-positive.
for doc in DESIGN.md README.md docs/API.md .claude/skills/verify/SKILL.md; do
  for ref in $(grep -oE '(internal|cmd|examples|\.github)/[A-Za-z0-9_./-]*[A-Za-z0-9_]' "$doc" | sort -u); do
    if [ ! -e "$ref" ]; then
      echo "$doc references nonexistent path: $ref" >&2
      fail=1
    fi
  done
done

# 2. Every "DESIGN.md §N" reference in Go sources must resolve to a
#    "## §N" heading in DESIGN.md.
for sec in $(grep -rhoE 'DESIGN\.md §[0-9]+' --include='*.go' . | grep -oE '[0-9]+' | sort -u); do
  if ! grep -qE "^## §$sec " DESIGN.md; then
    echo "Go sources reference DESIGN.md §$sec but DESIGN.md has no such section" >&2
    fail=1
  fi
done

# 3. docs/API.md and the muxes (service + fleet coordinator) must agree on
#    the route set, in both directions: an undocumented registration and a
#    documented-but-gone route both fail. The code side is the literal
#    mux.HandleFunc patterns; the doc side is every backticked
#    `METHOD /path` span.
routes_code="$(grep -ohE 'mux\.HandleFunc\("[A-Z]+ [^"]+"' \
    internal/campaign/service/http.go internal/campaign/fleet/http.go \
  | sed -E 's/.*\("//; s/"$//' | sort -u)"
routes_doc="$(grep -oE '`(GET|HEAD|POST|PUT|PATCH|DELETE) /[^`]*`' docs/API.md \
  | tr -d '\`' | sort -u)"
if [ -z "$routes_code" ] || [ -z "$routes_doc" ]; then
  echo "route extraction produced an empty list (check-doc-refs.sh pattern rot?)" >&2
  fail=1
elif [ "$routes_code" != "$routes_doc" ]; then
  echo "docs/API.md and the service/fleet mux route sets drifted:" >&2
  diff <(echo "$routes_doc") <(echo "$routes_code") >&2 || true
  echo "(left: documented in docs/API.md; right: registered on a mux)" >&2
  fail=1
fi

# 4. The README analyzer table and cmd/smtlint must agree on the
#    analyzer set, in both directions: a registered analyzer missing from
#    the table and a table row naming an analyzer cmd/smtlint no longer
#    registers both fail. Every registered analyzer must also be
#    mentioned in DESIGN.md §9. The code side is `smtlint -list`; the doc
#    side is the backticked first column of the table under the
#    "| Analyzer | Invariant |" header.
analyzers_code="$(go run ./cmd/smtlint -list | awk '{print $1}' | sort -u)"
analyzers_doc="$(awk '/^\| Analyzer \| Invariant \|/{t=1; next} t && !/^\|/{t=0} t' README.md \
  | grep -oE '^\| `[a-z]+` \|' | tr -d '|` ' | sort -u)"
if [ -z "$analyzers_code" ] || [ -z "$analyzers_doc" ]; then
  echo "analyzer extraction produced an empty list (check-doc-refs.sh pattern rot?)" >&2
  fail=1
elif [ "$analyzers_code" != "$analyzers_doc" ]; then
  echo "the README analyzer table and smtlint -list drifted:" >&2
  diff <(echo "$analyzers_doc") <(echo "$analyzers_code") >&2 || true
  echo "(left: rows in the README analyzer table; right: registered in cmd/smtlint)" >&2
  fail=1
fi
for a in $analyzers_code; do
  if ! grep -q "$a" DESIGN.md; then
    echo "analyzer $a is registered in cmd/smtlint but never mentioned in DESIGN.md" >&2
    fail=1
  fi
done

if [ "$fail" -eq 0 ]; then
  echo "doc references OK"
fi
exit "$fail"

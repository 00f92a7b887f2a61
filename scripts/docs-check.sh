#!/bin/sh
# docs-check enforces the godoc contract on internal/... (every
# package under it, including new ones like internal/dataplane, is
# picked up automatically by the find below) and the
# public guarantee package: every
# exported top-level identifier and every exported method on an
# exported type needs a doc comment, and every package needs a
# package-level doc comment. Purely textual (awk over the source), so
# it stays fast and dependency-free; go vet runs alongside it in the
# Makefile target for the semantic checks.
set -eu
cd "$(dirname "$0")/.."

fail=0
# testdata trees hold analyzer fixtures, not API surface.
files=$(find internal guarantee -path '*/testdata/*' -prune -o -name '*.go' ! -name '*_test.go' -print | sort)

# Exported identifiers: a top-level `func|type|var|const Exported`, or
# a method `func (recv ExportedType) ExportedName`, must be directly
# preceded by a comment line.
if ! awk '
FNR == 1 { prev = "" }
{
    flag = 0
    if ($0 ~ /^(func|type|var|const) [A-Z]/) {
        flag = 1
    } else if ($0 ~ /^func \([^)]*\) [A-Z]/) {
        recv = $0
        sub(/^func \(/, "", recv)
        sub(/\).*/, "", recv)
        n = split(recv, parts, /[ \t]+/)
        typ = parts[n]
        gsub(/[*\[\]]/, "", typ)
        if (typ ~ /^[A-Z]/) flag = 1   # methods on unexported types are internal
    }
    if (flag && prev !~ /^\/\// && prev !~ /\*\/[ \t]*$/) {
        print FILENAME ":" FNR ": exported identifier missing doc comment: " $0
        bad = 1
    }
    prev = $0
}
END { exit bad }
' $files; then
    fail=1
fi

# Package doc comments: at least one file per package must carry a
# comment block directly above its package clause.
for dir in $(find internal guarantee -path '*/testdata' -prune -o -type d -print | sort); do
    ok=""
    found_go=""
    for f in "$dir"/*.go; do
        [ -e "$f" ] || continue
        case $f in *_test.go) continue ;; esac
        found_go=1
        if awk 'prev ~ /^\/\// && /^package / { found = 1 } { prev = $0 } END { exit !found }' "$f"; then
            ok=1
            break
        fi
    done
    if [ -n "$found_go" ] && [ -z "$ok" ]; then
        echo "$dir: missing package-level doc comment"
        fail=1
    fi
done

# Narrative docs: the sections that document cross-package contracts
# must exist — a refactor that renames or drops them silently orphans
# the contract they pin (the Indexes section is the soundness contract
# of the topology free-capacity index; the README batch note is the
# public AdmitBatch semantics; the Modes section names what selects
# every surviving mode, so a new one has to say what pays its rent).
for want in '^## Indexes' '^### Soundness invariant' '^### Delta-maintenance contract' '^### Snapshot/replay interaction' '^## Enforcement hot path' '^### Event-driven max-min' '^### Component-incremental stepping' '^## Static analysis' '^### The analyzers' '^### Suppression directives' '^### Boundary rules as data' '^## Commit pipeline' '^### Flat combining' '^### Group commit' '^## Modes and what pays their rent'; do
    if ! grep -q "$want" docs/ARCHITECTURE.md; then
        echo "docs/ARCHITECTURE.md: missing section matching '$want'"
        fail=1
    fi
done
if ! grep -q 'AdmitBatch' README.md; then
    echo "README.md: missing the batch-admission (AdmitBatch) note"
    fail=1
fi
if ! grep -q 'make analyze' README.md; then
    echo "README.md: missing the analyzer-suite (make analyze) note"
    fail=1
fi

# Cited tests must exist: every Test*/Fuzz*/Benchmark* name inside
# backticks or a fenced code block of the narrative docs needs a func of
# that name in some _test.go file (a name ending in * needs one with
# that prefix), so renaming or deleting a test cannot orphan the prose
# that points readers at it.
funcs=$(grep -rhoE '^func (Test|Fuzz|Benchmark)[A-Za-z0-9_]*' --include='*_test.go' . | sed 's/^func //' | sort -u)
for doc in README.md docs/ARCHITECTURE.md .claude/skills/verify/SKILL.md; do
    for name in $(awk '
    { doc = doc $0 "\n" }
    END {
        n = split(doc, fence, "```")
        for (i = 1; i <= n; i++) {
            if (i % 2 == 0) { code = code " " fence[i]; continue }
            m = split(fence[i], span, "`")
            for (j = 2; j <= m; j += 2) code = code " " span[j]
        }
        while (match(code, /(Test|Fuzz|Benchmark)[A-Za-z0-9_]*\*?/)) {
            before = RSTART > 1 ? substr(code, RSTART - 1, 1) : " "
            if (before !~ /[A-Za-z0-9_]/) print substr(code, RSTART, RLENGTH)
            code = substr(code, RSTART + RLENGTH)
        }
    }' "$doc" | sort -u); do
        case $name in
        *\*) pattern="^${name%\*}" ;;
        *) pattern="^${name}\$" ;;
        esac
        if ! printf '%s\n' "$funcs" | grep -q "$pattern"; then
            echo "$doc: cites \`$name\`, which no _test.go file defines"
            fail=1
        fi
    done
done

exit $fail

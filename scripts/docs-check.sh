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
# the contract they pin (the README batch note is the public AdmitBatch
# semantics, its durable fsync included; the Modes section names what
# selects every surviving mode, so a new one has to say what pays its
# rent).
for want in '^## Enforcement hot path' '^### Event-driven max-min' '^### Component-incremental stepping' '^## Static analysis' '^### The analyzers' '^### Suppression directives' '^### Boundary rules as data' '^## Commit pipeline' '^### One mutex per shard' '^### Group commit' '^## Modes and what pays their rent'; do
    if ! grep -q "$want" docs/ARCHITECTURE.md; then
        echo "docs/ARCHITECTURE.md: missing section matching '$want'"
        fail=1
    fi
done
if ! grep -q '^### Batch admission (`AdmitBatch`)' README.md || ! grep -q 'one fsync per batch' README.md; then
    echo "README.md: missing the batch-admission (AdmitBatch) note or its one-fsync-per-batch contract"
    fail=1
fi
if ! grep -q 'make analyze' README.md; then
    echo "README.md: missing the analyzer-suite (make analyze) note"
    fail=1
fi

# No line references: a `file.go:NNN` in the narrative docs goes stale
# with the next edit above that line, so the docs name the symbol
# instead (the checks below resolve symbols).
for doc in README.md docs/ARCHITECTURE.md .claude/skills/verify/SKILL.md; do
    if grep -nE '[A-Za-z0-9_]\.go:[0-9]+' "$doc"; then
        echo "$doc: cites a .go line number; name the symbol instead"
        fail=1
    fi
done

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

# Cited flags must exist: every -flag that follows a `bwd` or `simulate`
# command word (bare or as a path, e.g. ./cmd/bwd) inside backticks or a
# fenced code block of the narrative docs needs a flag of that name
# defined in cmd/bwd or cmd/simulate. A command's flags end at a shell
# separator (|, &, ;, >).
for cmd in bwd simulate; do
    defined=$(grep -ohE 'flag\.[A-Za-z0-9]+\((&[A-Za-z0-9_.]+, *)?"[^"]+"' cmd/$cmd/*.go | sed 's/.*"\([^"]*\)"$/\1/')
    defined=$(printf '%s\nh\nhelp\n' "$defined" | sort -u)
    for doc in README.md docs/ARCHITECTURE.md .claude/skills/verify/SKILL.md; do
        for name in $(awk -v cmd="$cmd" '
        { doc = doc $0 "\n" }
        END {
            n = split(doc, fence, "```")
            for (i = 1; i <= n; i++) {
                if (i % 2 == 0) { code = code "\n" fence[i]; continue }
                m = split(fence[i], span, "`")
                for (j = 2; j <= m; j += 2) { s = span[j]; gsub(/\n/, " ", s); code = code "\n" s }
            }
            nl = split(code, lines, "\n")
            for (l = 1; l <= nl; l++) {
                on = 0
                k = split(lines[l], w, /[ \t]+/)
                for (x = 1; x <= k; x++) {
                    if (w[x] == cmd || w[x] ~ ("/" cmd "$")) on = 1
                    else if (w[x] ~ /^[|&;>]/) on = 0
                    else if (on && match(w[x], /^--?[A-Za-z][A-Za-z0-9_-]*/)) {
                        f = substr(w[x], 1, RLENGTH)
                        sub(/^--?/, "", f)
                        print f
                    }
                }
            }
        }' "$doc" | sort -u); do
            if ! printf '%s\n' "$defined" | grep -qx -- "$name"; then
                echo "$doc: cites \`$cmd -$name\`, which cmd/$cmd does not define"
                fail=1
            fi
        done
    done
done

# Cited Go symbols must exist: every `pkg.Ident` or `pkg.Type.Ident`
# inside backticks or a fenced code block of the narrative docs whose pkg
# names a package of this module (bench/ is a module of its own) needs a
# func, method, type, var, const or field of that name in the package's
# files, tests included: a test or a test hook is cited as readily as
# the API. `name.go` is a file, not a symbol.
gofiles=$(find . -path ./bench -prune -o -path ./.bench_build -prune -o -path '*/testdata' -prune -o -name '*.go' -print | sort)
decls=$(awk '
function idents(s,    out) {
    out = ""
    while (match(s, /^[A-Za-z_][A-Za-z0-9_]*/)) {
        out = out " " substr(s, 1, RLENGTH)
        s = substr(s, RLENGTH + 1)
        if (!match(s, /^[ \t]*,[ \t]*/)) break
        s = substr(s, RLENGTH + 1)
    }
    return out
}
function emit(prefix, list,    n, a, i) {
    n = split(list, a, " ")
    for (i = 1; i <= n; i++) print pkg " " prefix a[i]
}
FNR == 1 { pkg = ""; blk = ""; depth = 0 }
/^package / { pkg = $2; sub(/_test$/, "", pkg); next }
pkg == "" || pkg == "main" { next }
{ line = $0; sub(/[ \t]*\/\/.*/, "", line) }
depth > 0 {
    # A struct or interface body: fields, embedded types and methods.
    s = line
    sub(/^[ \t]*\*?/, "", s)
    if (s ~ /^[A-Za-z_][A-Za-z0-9_]*\.[A-Za-z_][A-Za-z0-9_]*[ \t]*$/) { sub(/^[^.]*\./, "", s); emit(typ ".", idents(s)) }
    else emit(typ ".", idents(s))
    depth += gsub(/\{/, "{", line) - gsub(/\}/, "}", line)
    next
}
blk != "" {
    if (line ~ /^\)/) { blk = ""; next }
    if (line !~ /^\t[A-Za-z_]/) next
    s = line
    sub(/^\t/, "", s)
    if (blk == "value") { emit("", idents(s)); next }
    match(s, /^[A-Za-z_][A-Za-z0-9_]*/)
    typ = substr(s, 1, RLENGTH)
    emit("", typ)
    if (s ~ /(struct|interface)[ \t]*\{[ \t]*$/) depth = 1
    next
}
/^func \(/ {
    recv = line
    sub(/^func \(/, "", recv)
    sub(/\).*/, "", recv)
    n = split(recv, p, /[ \t*]+/)
    rt = p[n]
    sub(/\[.*/, "", rt)
    s = line
    sub(/^func \([^)]*\)[ \t]*/, "", s)
    emit(rt ".", idents(s))
    next
}
/^func / { s = line; sub(/^func[ \t]+/, "", s); emit("", idents(s)); next }
/^type \(/ { blk = "type"; next }
/^(var|const) \(/ { blk = "value"; next }
/^type [A-Za-z_]/ {
    typ = $2
    sub(/\[.*/, "", typ)
    emit("", typ)
    if (line ~ /(struct|interface)[ \t]*\{[ \t]*$/) depth = 1
    next
}
/^(var|const) [A-Za-z_]/ { s = line; sub(/^(var|const)[ \t]+/, "", s); emit("", idents(s)) }
' $gofiles | sort -u)
pkgs=$(printf '%s\n' "$decls" | cut -d' ' -f1 | sort -u | tr '\n' ' ')
for doc in README.md docs/ARCHITECTURE.md .claude/skills/verify/SKILL.md; do
    for sym in $(awk -v pkgs="$pkgs" '
    BEGIN { n = split(pkgs, p, " "); for (i = 1; i <= n; i++) known[p[i]] = 1 }
    { doc = doc $0 "\n" }
    END {
        n = split(doc, fence, "```")
        for (i = 1; i <= n; i++) {
            if (i % 2 == 0) { code = code " " fence[i]; continue }
            m = split(fence[i], span, "`")
            for (j = 2; j <= m; j += 2) code = code " " span[j]
        }
        while (match(code, /[a-z][a-z0-9]*(\.[A-Za-z_][A-Za-z0-9_]*)+/)) {
            before = RSTART > 1 ? substr(code, RSTART - 1, 1) : " "
            sym = substr(code, RSTART, RLENGTH)
            code = substr(code, RSTART + RLENGTH)
            k = split(sym, part, ".")
            if (before ~ /[A-Za-z0-9_.\/]/ || !(part[1] in known) || part[2] == "go") continue
            print part[1] "." part[2] (k > 2 ? "." part[3] : "")
        }
    }' "$doc" | sort -u); do
        if ! printf '%s\n' "$decls" | grep -qxF "${sym%%.*} ${sym#*.}"; then
            echo "$doc: cites \`$sym\`, which package ${sym%%.*} does not declare"
            fail=1
        fi
    done
done

# Cited bare identifiers must exist too: every exported `Ident` or
# `Type.Ident` inside backticks (fenced blocks are shell, not prose)
# needs a declaration somewhere in the module — a bare Ident may name a
# type, func, var, const, field or method, `Type.Ident` a member of that
# type. A bare name that completes a Test/Benchmark/Fuzz func is a
# `-run`/`-bench` pattern. Test names have their own check above; the
# allowlist holds the non-module names the docs cite.
allow='GET POST X CRC Ts Td AllocTenant Float64bits LookupEnv WriteAt RunParallel BENCHMARK.json'
names=$(printf '%s\n' "$decls" | awk '{ n = split($2, a, "."); print a[n]; if (n > 1) print $2 }' | sort -u)
for doc in README.md docs/ARCHITECTURE.md .claude/skills/verify/SKILL.md; do
    for sym in $(awk '
    { doc = doc $0 "\n" }
    END {
        n = split(doc, fence, "```")
        for (i = 1; i <= n; i += 2) {
            m = split(fence[i], span, "`")
            for (j = 2; j <= m; j += 2) code = code " " span[j]
        }
        while (match(code, /[A-Z][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)?/)) {
            before = RSTART > 1 ? substr(code, RSTART - 1, 1) : " "
            sym = substr(code, RSTART, RLENGTH)
            code = substr(code, RSTART + RLENGTH)
            if (before ~ /[A-Za-z0-9_.\/]/ || sym ~ /^(Test|Benchmark|Fuzz)/) continue
            print sym
        }
    }' "$doc" | sort -u); do
        case " $allow " in *" $sym "*) continue ;; esac
        if printf '%s\n' "$names" | grep -qxF "$sym"; then continue; fi
        case $sym in
        *.*) ;;
        *) if printf '%s\n' "$funcs" | grep -qE "^(Test|Benchmark|Fuzz)$sym"; then continue; fi ;;
        esac
        echo "$doc: cites \`$sym\`, which no package of the module declares"
        fail=1
    done
done

exit $fail

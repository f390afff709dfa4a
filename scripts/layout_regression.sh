#!/bin/sh
# Layout-regression gate: the paper32 target must keep producing
# byte-identical reports on the benchmark suites (the layout engine is
# new plumbing, not new behavior, under the packed model), and the
# sysv64 target must analyze the same suites cleanly. The cascade
# goldens (testdata/goldens/<suite>.cascade.txt, from
# `cssv -cascade -certify -dump-reduced-ip -q`) pin each check's deciding
# tier, its certificate status and the residual slices, at -j 1 and -j 8
# alike. Emits the member-access precision counters for both targets to
# $COUNTER_OUT (default layout-counters.txt) so CI can archive the deltas.
#
# Usage: scripts/layout_regression.sh   (from the repo root)
set -eu

COUNTER_OUT="${COUNTER_OUT:-layout-counters.txt}"
CSSV="${CSSV:-/tmp/cssv-layout-gate}"

go build -o "$CSSV" ./cmd/cssv

fail=0
: > "$COUNTER_OUT"
for f in running/skipline airbus/airbus fixwrites/fixwrites; do
    name=$(basename "$f")
    golden="testdata/goldens/$name.paper32.txt"
    got="/tmp/$name.paper32.out"

    rc=0
    "$CSSV" -q "testdata/$f.c" > "$got" 2>&1 || rc=$?
    echo "exit=$rc" >> "$got"
    if ! cmp -s "$golden" "$got"; then
        echo "FAIL: paper32 report for $name differs from $golden:" >&2
        diff "$golden" "$got" >&2 || true
        fail=1
    else
        echo "ok: $name paper32 report is byte-identical"
    fi

    golden="testdata/goldens/$name.cascade.txt"
    for j in 1 8; do
        got="/tmp/$name.cascade.j$j.out"
        rc=0
        "$CSSV" -j "$j" -cascade -certify -dump-reduced-ip -q "testdata/$f.c" > "$got" 2>&1 || rc=$?
        echo "exit=$rc" >> "$got"
        if ! cmp -s "$golden" "$got"; then
            echo "FAIL: -j $j cascade report for $name differs from $golden:" >&2
            diff "$golden" "$got" >&2 || true
            fail=1
        else
            echo "ok: $name -j $j cascade report is byte-identical"
        fi
    done

    for target in paper32 sysv64; do
        rc=0
        out="$("$CSSV" -stats -q -target "$target" "testdata/$f.c" 2>&1)" || rc=$?
        # exit 1 = messages reported (expected); >1 = analysis failure.
        if [ "$rc" -gt 1 ]; then
            echo "FAIL: cssv -target $target exited $rc on $name" >&2
            echo "$out" >&2
            fail=1
            continue
        fi
        printf '%s %s ' "$name" "$target" >> "$COUNTER_OUT"
        echo "$out" | grep 'member-accesses' >> "$COUNTER_OUT"
    done
done

echo "member-access precision counters:"
cat "$COUNTER_OUT"

# The packed model must resolve member accesses on airbus (nonzero
# counter), or the counting plumbing has rotted.
if ! grep -q 'airbus paper32 .*resolved=[1-9]' "$COUNTER_OUT"; then
    echo "FAIL: airbus paper32 run resolved no member accesses" >&2
    fail=1
fi

exit $fail

#!/usr/bin/env bash
# Keep README's environment-knob table honest.
#
# Every LISA_* environment variable the program reads through a literal
# std::getenv call in src/, bench/ or tools/ must have a row in the
# "Environment knobs at a glance" table of README.md, and every LISA_*
# name in that table's first column must still be read by something.
# Fails listing the names on either side that have no partner.
#
# Pure grep/awk on purpose, like tools/lint.sh: runs in any container.
#
# Usage: tools/check_knobs.sh

set -u

cd "$(dirname "$0")/.."

read_knobs=$(grep -rhoE --include='*.cc' --include='*.hh' \
        'getenv\("LISA_[A-Z0-9_]+"\)' src bench tools |
    grep -oE 'LISA_[A-Z0-9_]+' | sort -u)

# Rows of the first table after the heading line; stop at its end.
table_knobs=$(awk '
        /^Environment knobs at a glance:/ { found = 1; next }
        found && /^\|/ {
            in_table = 1
            split($0, cell, "|")
            print cell[2]
            next
        }
        in_table { exit }
    ' README.md | grep -oE 'LISA_[A-Z0-9_]+' | sort -u)

if [ -z "$table_knobs" ]; then
    echo "check_knobs.sh: FAIL: no knob table found in README.md" >&2
    exit 1
fi

fail=0
undocumented=$(comm -23 <(printf '%s\n' "$read_knobs") \
    <(printf '%s\n' "$table_knobs"))
stale=$(comm -13 <(printf '%s\n' "$read_knobs") \
    <(printf '%s\n' "$table_knobs"))
for k in $undocumented; do
    echo "check_knobs.sh: FAIL: $k is read but has no README knob row" >&2
    fail=1
done
for k in $stale; do
    echo "check_knobs.sh: FAIL: README knob row $k is read by nothing" >&2
    fail=1
done

if [ "$fail" -ne 0 ]; then
    exit 1
fi
echo "check_knobs.sh: README knob table OK ($(wc -w <<< "$read_knobs") knobs)"

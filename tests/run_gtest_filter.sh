#!/bin/sh
# Runs a googletest binary under a --gtest_filter, but first fails if any
# positive pattern of the filter selects no test. googletest 1.11 and 1.12
# run an empty selection and report success, so a pattern left behind by
# a renamed suite would otherwise pass by running nothing.
#
#   tests/run_gtest_filter.sh BINARY FILTER [EXTRA_GTEST_ARGS...]
#
# FILTER uses googletest's syntax: POSITIVE[:POSITIVE...][-NEGATIVE...].
# Each positive pattern is listed on its own, with the negative part
# applied, and must select at least one test.
set -euf  # -f: the patterns hold globs meant for googletest, not the shell

if [ $# -lt 2 ]; then
  echo "usage: $0 BINARY FILTER [EXTRA_GTEST_ARGS...]" >&2
  exit 2
fi
bin=$1
filter=$2
shift 2

positive=${filter%%-*}
negative=${filter#"$positive"}
[ -n "$positive" ] || positive='*'

old_ifs=$IFS
IFS=:
for pattern in $positive; do
  IFS=$old_ifs
  count=$("$bin" --gtest_list_tests --gtest_filter="$pattern$negative" |
          grep -c '^  ' || true)
  if [ "$count" -eq 0 ]; then
    echo "$0: pattern '$pattern' selects no test in $bin" >&2
    exit 1
  fi
  echo "$0: '$pattern' selects $count test(s)"
done
IFS=$old_ifs

exec "$bin" --gtest_filter="$filter" "$@"

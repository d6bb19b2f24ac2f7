#!/bin/sh
# Strict command line of sprof-inspect: --top takes only a positive
# decimal count, --json only belongs to 'diff', --top only to
# 'hotspots', 'trace' and 'sweep', and an option given to any other
# subcommand is a usage error, never silently ignored.
#
# Every subcommand first runs once on a valid input and must exit 0, so
# the bad forms below fail on their options, not on their inputs. Each
# bad form must then exit 1 with the usage line on stderr and write no
# output file.
#
# Usage: check_inspect_usage.sh /path/to/sprof-inspect /path/to/telemetry_demo
#            /path/to/sweep_demo

# The script runs in a scratch directory, so relative paths are resolved
# first.
abspath() {
    case "$1" in
        /*) echo "$1" ;;
        *) echo "$PWD/$1" ;;
    esac
}
INSPECT="$(abspath "${1:?usage: check_inspect_usage.sh sprof-inspect telemetry_demo sweep_demo}")"
DEMO="$(abspath "${2:?missing telemetry_demo}")"
SWEEP="$(abspath "${3:?missing sweep_demo}")"

WORK="$(mktemp -d)" || exit 1
trap 'rm -rf "$WORK"' EXIT
cd "$WORK" || exit 1

fail() {
    echo "FAIL: $*" >&2
    exit 1
}

# Valid inputs: a run report pair and a time series (telemetry_demo), a
# sweep report and a flight-recorder dump (sweep_demo), and an imported
# trace.
"$DEMO" report.json chrome.json sampled.json > /dev/null ||
    fail "telemetry_demo did not run"
"$SWEEP" --report=sweep.json --trace=sweep_trace.json \
    --flight=flight.json --dump-flight > /dev/null ||
    fail "sweep_demo did not run"
printf '0x1000,0,L\n0x1040,0,L\n0x1080,1,P\n' > log.txt

ok() {
    "$INSPECT" "$@" > /dev/null 2> err.txt ||
        fail "valid form '$*' exited $?: $(cat err.txt)"
}
ok import log.txt trace.sprof.trace
# A lone '-' is the stdin operand of 'import', not an option.
ok import - stdin.sprof.trace < log.txt
ok summary report.json
ok diff report.json sampled.json --json=diff.json
ok timeseries telemetry_timeseries.json
ok hotspots report.json --top=5
ok trace trace.sprof.trace --top=3
ok sweep sweep.json --top=2
ok blackbox flight.json

bad() {
    rm -f out.json out.sprof.trace
    "$INSPECT" "$@" > /dev/null 2> err.txt
    status=$?
    [ "$status" -eq 1 ] || fail "'$*' exited $status, want 1"
    grep -q '^usage: sprof-inspect' err.txt ||
        fail "'$*' printed no usage line: $(cat err.txt)"
    [ ! -e out.json ] && [ ! -e out.sprof.trace ] ||
        fail "'$*' wrote an output file"
}
for top in --top=-1 --top= --top=0 --top=abc --top=5x --top=+5 \
           --top=' 5' --top=99999999999999999999999; do
    bad trace trace.sprof.trace "$top"
done
bad trace trace.sprof.trace --json=out.json
bad summary report.json --top=5
bad summary report.json --json=out.json
bad diff report.json sampled.json --top=3
bad diff report.json sampled.json --json=
bad timeseries telemetry_timeseries.json --top=3
bad hotspots report.json --json=out.json
bad import log.txt out.sprof.trace --top=3
bad import log.txt out.sprof.trace --json=out.json
bad sweep sweep.json --json=out.json
bad blackbox flight.json --top=3
bad summary report.json --bogus
echo "sprof-inspect usage OK"

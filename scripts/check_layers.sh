#!/bin/sh
# Layering guard: the live libraries and the tools carry no dataflow engine.
#
#   sh scripts/check_layers.sh <source dir> [<build dir>]
#
# The timely engine (src/timely) and its adapters (src/dataflow, library
# ts_dataflow) serve the paper-figure benches, the examples and their tests.
# Nothing else may reach them. Fails (exit 1, naming each offender) when
#   - a file under src/ outside src/timely/ and src/dataflow/, or under
#     tools/, includes a header from src/timely/ or src/dataflow/;
#   - a src/*/CMakeLists.txt other than those two directories' names
#     ts_timely;
#   - with a build directory given, a tool's link line names ts_timely or
#     ts_dataflow (it catches a link pulled in through another library).
src=${1:?usage: check_layers.sh <source dir> [<build dir>]}
build=$2
status=0

includes=$(cd "$src" && grep -rnE \
  '^[[:space:]]*#[[:space:]]*include[[:space:]]*"src/(timely|dataflow)/' \
  src tools | grep -vE '^src/(timely|dataflow)/')
if [ -n "$includes" ]; then
  echo "live code includes the dataflow engine or its adapters:"
  echo "$includes"
  status=1
fi

for cmake in "$src"/src/*/CMakeLists.txt; do
  case "$cmake" in
    "$src"/src/timely/* | "$src"/src/dataflow/*) continue ;;
  esac
  if grep -nw ts_timely "$cmake"; then
    echo "^ $cmake links the dataflow engine"
    status=1
  fi
done

if [ -n "$build" ]; then
  found=0
  for link in "$build"/tools/CMakeFiles/*.dir/link.txt; do
    [ -f "$link" ] || continue
    found=1
    if grep -qE 'ts_(timely|dataflow)' "$link"; then
      echo "$link links the dataflow engine"
      status=1
    fi
  done
  if [ "$found" -eq 0 ]; then
    echo "no tool link lines under $build/tools: build the tools first"
    status=1
  fi
fi

[ "$status" -eq 0 ] && echo "layering OK"
exit "$status"

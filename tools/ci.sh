#!/usr/bin/env bash
# CI entry point: builds (warning-free, -Werror) and tests the plain
# configuration, then rebuilds for x86-64-v3 to check that FMA hardware
# moves no output byte, then under ASan and UBSan (LOSSYTS_SANITIZE, see the
# top-level CMakeLists.txt) so the decoder robustness and failpoint-recovery
# paths are memory-checked, not just status-checked, and finally under TSan
# to race-check the thread pool, the progress reporter and the parallel
# grid's determinism tests.
#
# Usage: tools/ci.sh [build-root]          (default: ci-build)
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_ROOT="${1:-ci-build}"
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

# Serve-daemon crash smoke, run in every leg (so the WAL replay and socket
# paths are also sanitizer-checked): start `lossyts serve`, drive mixed
# traffic, SIGKILL the daemon mid-ingest, reopen the catalog and verify that
# every acked append survived and only whole ops are visible. Iterations via
# LOSSYTS_SERVE_ITERS (default 1). Fails fast if a leg leaves a daemon
# process behind.
serve_smoke() {
  local dir="$1"
  local bin="${dir}/tools/lossyts"
  local iters="${LOSSYTS_SERVE_ITERS:-1}"
  local i
  for ((i = 0; i < iters; ++i)); do
    local catalog="${dir}/serve_smoke_${i}"
    local sock="${catalog}.sock"
    local log="${catalog}.log"
    rm -rf "${catalog}" "${sock}"

    # Phase 1: daemon up, mixed traffic, then SIGKILL mid-ingest.
    "${bin}" serve "${catalog}" --socket "${sock}" --shards 2 \
      --codecs GORILLA >"${log}" 2>&1 &
    local pid=$!
    local up=0 t
    for ((t = 0; t < 150; ++t)); do
      if [[ -S "${sock}" ]]; then up=1; break; fi
      sleep 0.1
    done
    if [[ "${up}" != 1 ]]; then
      echo "serve_smoke: daemon never came up"; cat "${log}"; return 1
    fi
    "${bin}" client "${sock}" ping >/dev/null
    local b
    for b in 0 1 2 3; do
      "${bin}" client "${sock}" append smoke $((b * 180)) 60 \
        1.5,2.5,-3.5 >/dev/null
      "${bin}" client "${sock}" read smoke 0 100000 >/dev/null
    done
    "${bin}" client "${sock}" stats >/dev/null
    # A value or interval that is not a whole, finite number is a usage
    # error (exit 2) and nothing reaches the daemon: the series stays unknown.
    local bad status
    for bad in "0 60 1.5,abc,2x" "0 60x 1.5"; do
      status=0
      # ${bad} is unquoted on purpose: it holds three arguments.
      "${bin}" client "${sock}" append rejected ${bad} >/dev/null 2>&1 \
        || status=$?
      if [[ "${status}" -ne 2 ]]; then
        echo "serve_smoke: 'append rejected ${bad}' exited ${status}, wanted 2"
        return 1
      fi
    done
    if "${bin}" client "${sock}" read rejected 0 100000 >/dev/null 2>&1; then
      echo "serve_smoke: a rejected append stored points"
      return 1
    fi
    # Burst feeder: one point per op, value == index; it records every ack,
    # and the daemon is killed -9 while the stream is live.
    local acked_file="${catalog}.acked"
    echo 0 >"${acked_file}"
    (
      n=0
      while "${bin}" client "${sock}" append burst $((n * 60)) 60 "${n}" \
          >/dev/null 2>&1; do
        n=$((n + 1))
        echo "${n}" >"${acked_file}"
      done
    ) &
    local feeder=$!
    sleep 1
    kill -9 "${pid}" 2>/dev/null || true
    wait "${pid}" 2>/dev/null || true
    wait "${feeder}" 2>/dev/null || true
    local acked
    acked="$(cat "${acked_file}")"

    # Phase 2: reopen the catalog; the durability contract must hold.
    rm -f "${sock}"
    "${bin}" serve "${catalog}" --socket "${sock}" --shards 2 \
      --codecs GORILLA >"${log}" 2>&1 &
    pid=$!
    up=0
    for ((t = 0; t < 150; ++t)); do
      if [[ -S "${sock}" ]]; then up=1; break; fi
      sleep 0.1
    done
    if [[ "${up}" != 1 ]]; then
      echo "serve_smoke: reopened daemon never came up"; cat "${log}"
      return 1
    fi
    local smoke_lines
    smoke_lines="$("${bin}" client "${sock}" read smoke 0 1000000 | wc -l)"
    if [[ "${smoke_lines}" -ne 12 ]]; then
      echo "serve_smoke: smoke series has ${smoke_lines} points, wanted 12"
      return 1
    fi
    local burst
    burst="$({ "${bin}" client "${sock}" read burst 0 100000000 \
      || true; } 2>/dev/null | wc -l)"
    if [[ "${burst}" -lt "${acked}" ]]; then
      echo "serve_smoke: lost acked writes (${burst} recovered < ${acked})"
      return 1
    fi
    if [[ "${burst}" -gt 0 ]]; then
      local last expected_last
      last="$("${bin}" client "${sock}" read burst 0 100000000 | tail -1)"
      expected_last="$(((burst - 1) * 60)),$((burst - 1))"
      if [[ "${last}" != "${expected_last}" ]]; then
        echo "serve_smoke: burst tail '${last}' != '${expected_last}'"
        return 1
      fi
    fi
    "${bin}" client "${sock}" shutdown >/dev/null
    wait "${pid}"
    echo "serve_smoke[${i}]: acked ${acked} burst ops, recovered ${burst}"
  done
  if pgrep -f "${bin} serve" >/dev/null 2>&1; then
    echo "serve_smoke: daemon process left behind after the leg"
    pkill -9 -f "${bin} serve" || true
    return 1
  fi
}

# Grouped-query smoke, run in every leg: build a directory of store pairs
# (`<name>.lts` + `<name>.pred.lts`), run the same grouped-metric query at
# --jobs 1 and --jobs 4, and require byte-identical output — the query
# layer's determinism contract, here sanitizer-checked as well. The PMC and
# Swing pairs are answered by segment pushdown; the SZ pair makes both
# queries decode SZ chunks, and the aggregate-only query take the
# decode-fallback path, so that code runs under every sanitizer too.
query_smoke() {
  local dir="$1"
  local bin="${dir}/tools/lossyts"
  local qdir="${dir}/query_smoke"
  rm -rf "${qdir}"
  mkdir -p "${qdir}"
  local s
  for s in east west; do
    "${bin}" store ingest PMC 0.05 Solar "${qdir}/solar_${s}.lts" >/dev/null
    "${bin}" store ingest SWING 0.10 Solar \
      "${qdir}/solar_${s}.pred.lts" >/dev/null
  done
  "${bin}" store ingest SZ 0.05 Solar "${qdir}/sz_north.lts" >/dev/null
  "${bin}" store ingest SZ 0.10 Solar "${qdir}/sz_north.pred.lts" >/dev/null
  local jobs
  for jobs in 1 4; do
    "${bin}" query "${qdir}" --metrics mae,rmse,smape,bias,pinball@0.9 \
      --agg MEAN,COUNT --group-by prefix --jobs "${jobs}" \
      >"${qdir}/j${jobs}.txt" 2>/dev/null
    "${bin}" query "${qdir}" --agg MIN,MAX,MEAN --group-by series \
      --jobs "${jobs}" >"${qdir}/agg_j${jobs}.txt" 2>/dev/null
  done
  # Windowed metric + aggregate query over the SZ pair and a Solar pair whose
  # forecast store has 100-point chunks: the range and the chunk spans cut
  # chunks mid-way, so the metric pipeline pairs runs whose chunk boundaries
  # differ, across its decode threads (under ASan, UBSan and TSan in those
  # legs).
  local wdir="${qdir}/window"
  mkdir -p "${wdir}"
  cp "${qdir}/sz_north.lts" "${qdir}/sz_north.pred.lts" "${wdir}/"
  "${bin}" store ingest PMC 0.05 Solar "${wdir}/solar_south.lts" >/dev/null
  "${bin}" store ingest SWING 0.10 Solar "${wdir}/solar_south.pred.lts" \
    --span 100 >/dev/null
  for jobs in 1 4; do
    "${bin}" query "${wdir}" --metrics rmse,mae --agg MIN,MEAN,COUNT \
      --range 1641000000 1643000000 --group-by all --jobs "${jobs}" \
      >"${qdir}/win_j${jobs}.txt" 2>/dev/null
  done
  local out
  for out in j agg_j win_j; do
    if ! cmp -s "${qdir}/${out}1.txt" "${qdir}/${out}4.txt"; then
      echo "query_smoke: --jobs 1 vs --jobs 4 outputs differ (${out})"
      diff "${qdir}/${out}1.txt" "${qdir}/${out}4.txt" || true
      return 1
    fi
  done
  echo "query_smoke: deterministic across jobs" \
    "($(wc -l <"${qdir}/j1.txt") + $(wc -l <"${qdir}/agg_j1.txt") +" \
    "$(wc -l <"${qdir}/win_j1.txt") lines)"
}

# Streaming smoke, run in every leg: the online forecasting loop on a real
# dataset via `lossyts stream`, then a serve round trip with per-series
# streaming state enabled: append over the socket, read StreamInfo, restart
# the daemon, and require the state rebuilt from the WAL/checkpoint to
# match. The drift-corpus checks (streamed Flush == batch, online alarms ==
# offline, recall, one thread == two) are ctest cases in every leg.
stream_smoke() {
  local dir="$1"
  local bin="${dir}/tools/lossyts"
  "${bin}" stream Solar --codec PMC --eb 0.05 --detector level-ph \
    --no-retrain >/dev/null
  local catalog="${dir}/stream_smoke"
  local sock="${catalog}.sock"
  local log="${catalog}.log"
  rm -rf "${catalog}" "${sock}"
  local phase info_before info_after pid up t
  for phase in 1 2; do
    "${bin}" serve "${catalog}" --socket "${sock}" --shards 2 \
      --codecs GORILLA --stream SWING --stream-eb 0.05 >"${log}" 2>&1 &
    pid=$!
    up=0
    for ((t = 0; t < 150; ++t)); do
      if [[ -S "${sock}" ]]; then up=1; break; fi
      sleep 0.1
    done
    if [[ "${up}" != 1 ]]; then
      echo "stream_smoke: daemon never came up (phase ${phase})"
      cat "${log}"; return 1
    fi
    if [[ "${phase}" == 1 ]]; then
      local b
      for b in 0 1 2 3 4; do
        "${bin}" client "${sock}" append drift $((b * 300)) 60 \
          "${b}.0,$((b + 1)).5,$((b + 2)).25,9.75,1.5" >/dev/null
      done
      info_before="$("${bin}" client "${sock}" stream-info drift)"
    else
      info_after="$("${bin}" client "${sock}" stream-info drift)"
    fi
    "${bin}" client "${sock}" shutdown >/dev/null
    wait "${pid}"
  done
  if [[ "${info_before}" != "${info_after}" ]]; then
    echo "stream_smoke: stream state changed across restart"
    echo "--- before ---"; echo "${info_before}"
    echo "--- after ----"; echo "${info_after}"
    return 1
  fi
  if ! grep -q "points" <<<"${info_after}"; then
    echo "stream_smoke: stream-info output looks empty: ${info_after}"
    return 1
  fi
  echo "stream_smoke: stream state identical across restart"
}

# Compression-sweep smoke, plain leg only (the sweep takes about a second
# optimized, much longer instrumented). figure2_te_cr, figure3_segments and
# table3_cr_te_regression recompute the sweep on every run; there is no
# sweep cache. Each bench runs twice in an empty temp dir: both runs must
# exit 0 with byte-identical stdout, and the dir must still be empty, so no
# cache file comes back. Then `lossyts sweep` on an all-zero CSV (its NRMSE
# is undefined) must exit 1 with a message on stderr, not silently.
sweep_smoke() {
  local dir
  dir="$(cd "$1" && pwd)"
  local work out
  work="$(mktemp -d)"
  out="${dir}/sweep_smoke"
  rm -rf "${out}"
  mkdir -p "${out}"
  local b run
  for b in figure2_te_cr figure3_segments table3_cr_te_regression; do
    for run in 1 2; do
      (cd "${work}" && "${dir}/bench/${b}" >"${out}/${b}.${run}.txt" \
        2>/dev/null)
    done
    if ! cmp -s "${out}/${b}.1.txt" "${out}/${b}.2.txt"; then
      echo "sweep_smoke: ${b} stdout differs between two runs"
      diff "${out}/${b}.1.txt" "${out}/${b}.2.txt" || true
      return 1
    fi
    if [[ -n "$(ls -A "${work}")" ]]; then
      echo "sweep_smoke: ${b} left files behind:"; ls -A "${work}"
      return 1
    fi
  done
  rmdir "${work}"
  printf 'timestamp,value\n0,0\n60,0\n120,0\n' >"${out}/zeros.csv"
  local status=0
  "${dir}/tools/lossyts" sweep "${out}/zeros.csv" >/dev/null \
    2>"${out}/zeros.err" || status=$?
  if [[ "${status}" -ne 1 || ! -s "${out}/zeros.err" ]]; then
    echo "sweep_smoke: lossyts sweep on an all-zero CSV exited ${status}" \
      "with stderr '$(cat "${out}/zeros.err")'; wanted 1 and a message"
    return 1
  fi
  echo "sweep_smoke: 3 benches deterministic and cache-free;" \
    "all-zero sweep fails with: $(head -1 "${out}/zeros.err")"
}

# One durable-file seam, plain leg only: outside src/core/durable_file.cc
# nothing in src/ may fsync, rename, truncate or write a file descriptor, or
# open a file with O_CREAT. Every such call goes through core/durable_file,
# where the crash-state oracle's op log sees it. Sockets send with ::send
# and do not match.
seam_guard() {
  local hits
  hits="$(grep -rnE '::(fsync|fdatasync|rename|ftruncate|write)\(|O_CREAT' \
    "${ROOT}/src" | grep -v "^${ROOT}/src/core/durable_file\.cc:" || true)"
  if [[ -n "${hits}" ]]; then
    echo "seam_guard: file-system calls outside src/core/durable_file.cc:"
    echo "${hits}"
    return 1
  fi
  echo "seam_guard: every file write in src/ goes through core/durable_file"
}

# One CRC frame, plain leg only: the chunk store, the WAL and the serve
# protocol name their frame magics in a compress::FrameFormat, and only
# compress::PutFrame writes a magic and only compress::ParseFrameHeader
# compares one. A line in src/ that writes (PutU32) or compares (== / !=)
# kFrameMagic, kWalRecordMagic or kChunkMagic is a fourth copy of the frame.
frame_guard() {
  local magics='(kFrameMagic|kWalRecordMagic|kChunkMagic)'
  local hits
  hits="$(grep -rnE "PutU32\(${magics}\)|(==|!=)[[:space:]]*${magics}\b|\b${magics}[[:space:]]*(==|!=)" \
    "${ROOT}/src" || true)"
  if [[ -n "${hits}" ]]; then
    echo "frame_guard: a frame magic written or compared outside the frame helper:"
    echo "${hits}"
    return 1
  fi
  echo "frame_guard: every frame in src/ goes through compress::PutFrame/ParseFrame"
}

# One byte-view spelling, plain leg only: a function in src/ that reads a
# byte buffer it does not keep takes one std::span<const uint8_t>. A header
# parameter spelled `const std::vector<uint8_t>&`, or a `const uint8_t*`
# followed by a size_t size, is a second spelling. Perl reads each header
# whole, so a parameter list that wraps a line is still seen.
span_guard() {
  local hits
  hits="$(find "${ROOT}/src" -name '*.h' -print0 | sort -z | xargs -0 perl -0777 -ne '
    while (/const\s+std::vector<uint8_t>\s*&\s*\w*\s*[,)]|const\s+uint8_t\s*\*\s*\w*\s*,\s*size_t\b/g) {
      my $line = 1 + (substr($_, 0, $-[0]) =~ tr/\n//);
      (my $match = $&) =~ s/\s+/ /g;
      print "$ARGV:$line: $match\n";
    }')"
  if [[ -n "${hits}" ]]; then
    echo "span_guard: a byte-buffer parameter not spelled std::span<const uint8_t>:"
    echo "${hits}"
    return 1
  fi
  echo "span_guard: every byte-buffer parameter in src/ headers is a std::span"
}

# Test oracles live in tests/oracles (lossyts_oracles), plain leg only: src/
# may not name the bit-at-a-time bit stream, Huffman, CRC-32 or Gorilla/Chimp
# reference coders, which would ship a second, slow copy of a format in the
# library.
oracle_guard() {
  local hits
  hits="$(grep -rnE 'ReferenceBit(Writer|Reader)|DecodeReference|ComputeCrc32Reference|Reference(Gorilla|Chimp)' \
    "${ROOT}/src" || true)"
  if [[ -n "${hits}" ]]; then
    echo "oracle_guard: a test oracle named in src/:"
    echo "${hits}"
    return 1
  fi
  echo "oracle_guard: src/ names no test oracle"
}

run_config() {
  local name="$1" sanitize="$2" filter="${3:-}"
  local dir="${BUILD_ROOT}/${name}"
  # The plain leg builds with -Werror, so a new warning fails CI; the
  # sanitizer legs keep warnings as warnings, since instrumentation can
  # raise diagnostics of its own.
  local cxx_flags=""
  if [[ -z "${sanitize}" ]]; then cxx_flags="-Werror"; fi
  echo "=== ${name} (LOSSYTS_SANITIZE='${sanitize}') ==="
  if [[ -z "${sanitize}" ]]; then
    seam_guard
    frame_guard
    span_guard
    oracle_guard
  fi
  cmake -B "${dir}" -S "${ROOT}" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DLOSSYTS_SANITIZE="${sanitize}" -DCMAKE_CXX_FLAGS="${cxx_flags}"
  cmake --build "${dir}" -j "${JOBS}"
  if [[ -n "${filter}" ]]; then
    ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" -R "${filter}"
  else
    ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}"
    # Codec conformance smoke: adversarial corpus x codecs x error bounds
    # through the pointwise-bound oracles plus decoder fuzzing. CI keeps the
    # grid small (2 cases per family); for a soak, set LOSSYTS_CONFORM_ITERS
    # to 8+ (>= 6 also cycles the whole "lengths" family across the u16
    # segment cap). The variable feeds both this smoke leg and the
    # ConformanceTest.FullGridIsClean ctest above.
    "${dir}/tools/lossyts" conform --cases "${LOSSYTS_CONFORM_ITERS:-2}"
    # Post-paper codecs, named explicitly: the default set above already
    # includes them, but this leg keeps LFZIP and CAMEO covered even if a
    # later change trims the default list, and doubles their mutation-fuzz
    # exposure under each sanitizer.
    "${dir}/tools/lossyts" conform --codecs LFZIP,CAMEO \
      --cases "${LOSSYTS_CONFORM_ITERS:-2}"
    # Numerics conformance smoke: finite-difference gradient oracles over the
    # autodiff ops and forecaster networks, closed-form analysis oracles, and
    # the training-determinism drill. CI keeps it small (2 seeded cases per
    # component); for a soak set LOSSYTS_NUMCHECK_ITERS to 8+. The variable
    # also sizes NumCheckTest.FullRunIsClean in the ctest pass above. Runs in
    # the plain, ASan, and UBSan legs, so the gradient math is also checked
    # for UB (signed overflow, bad shifts) and memory errors.
    "${dir}/tools/lossyts" numcheck --iters "${LOSSYTS_NUMCHECK_ITERS:-2}"
    # Chunk store smoke: ingest a dataset, answer an aggregate by segment
    # pushdown and by full decode, and verify every reconstructed point
    # against the raw data under the conform bound oracle. Runs in the
    # plain, ASan, and UBSan legs, so the frame parser and salvage scan are
    # memory-checked too. LOSSYTS_STORE_ITERS picks how many error bounds
    # the loop covers (default 1; the full list is 0.01 0.05 0.2).
    local store_bounds=(0.05 0.01 0.2)
    local store_iters="${LOSSYTS_STORE_ITERS:-1}"
    for eb in "${store_bounds[@]:0:${store_iters}}"; do
      local lts="${dir}/store_smoke_${eb}.lts"
      "${dir}/tools/lossyts" store ingest PMC,SWING,SZ,GORILLA,LFZIP,CAMEO \
        "${eb}" Solar "${lts}"
      "${dir}/tools/lossyts" store query "${lts}" MEAN
      "${dir}/tools/lossyts" store query "${lts}" MEAN --no-pushdown
      "${dir}/tools/lossyts" store verify "${lts}" Solar
    done
  fi
  if [[ -z "${sanitize}" ]]; then
    sweep_smoke "${dir}"
    # Self-relative speed floors (codec vs reference coders, pushdown vs
    # decode, query vs naive loop, serve p99, streaming vs batch ingest).
    # Plain leg only: a sanitizer slows the two sides of a ratio unequally,
    # so there it would measure the instrumentation, not the code.
    "${dir}/bench/speed_floors"
  fi
  serve_smoke "${dir}"
  query_smoke "${dir}"
  stream_smoke "${dir}"
}

# Cross-ISA identity leg: rebuild for x86-64-v3 (AVX2 + FMA), where the
# compiler would fuse a*b+c into one differently-rounded FMA if any part of
# src/ or tests/ were compiled with contraction on, then run every byte pin
# (the codec golden rows, GBM fits, query output, the damaged-blob statuses)
# and the spec tests, plus the conform smoke. Every output must match the
# baseline build's bytes. Skipped when this CPU cannot run v3 code.
run_v3() {
  if ! grep -qw avx2 /proc/cpuinfo || ! grep -qw fma /proc/cpuinfo; then
    echo "=== v3: skipped, this CPU lacks avx2 or fma ==="
    return 0
  fi
  local dir="${BUILD_ROOT}/v3"
  echo "=== v3 (-march=x86-64-v3) ==="
  cmake -B "${dir}" -S "${ROOT}" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_FLAGS=-march=x86-64-v3
  cmake --build "${dir}" -j "${JOBS}"
  ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" \
    -R 'GoldenTest|QueryPrecedenceTest|DamagedBlobOutcomesArePinned|SymbolTableMutantTest|SimdTest|AcfSpecTest'
  "${dir}/tools/lossyts" conform --cases 2
}

run_config plain ""
run_v3
ASAN_OPTIONS=detect_leaks=0 run_config asan address
UBSAN_OPTIONS=halt_on_error=1 run_config ubsan undefined
# TSan is restricted to the concurrency suite: the pool, the progress
# reporter, the artifact store, the parallel-vs-sequential grid tests, and
# the serve-daemon/store reader-vs-writer races, the per-series stream
# state that shards advance under their mutex, the drift-corpus streams run
# on one and on two threads, the process-wide raw-size
# memo behind compress::RunPipeline, one fitted forecaster shared by
# concurrent Predict/PredictBatch calls, and the ordered pipeline's
# decode-to-fold hand-off (its own tests and the grouped query's) exercise
# every cross-thread edge, and a full TSan run of the NN training tests
# would dominate CI time without touching more shared state.
TSAN_OPTIONS=halt_on_error=1 run_config tsan thread \
  'ThreadPoolTest|OrderedPipelineTest|ProgressTest|SeedTest|GridConcurrencyTest|ArtifactStoreTest|StoreConcurrencyTest|ServeConcurrencyTest|ServeDaemonConcurrencyTest|StoreRaceConcurrencyTest|StreamServeTest|DriftCorpusTest|PipelineConcurrencyTest|ForecastConcurrencyTest|QueryTest|QueryGoldenTest|QueryPrecedenceTest'

echo "=== ci.sh: all configurations passed ==="

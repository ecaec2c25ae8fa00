// Command evbench is the repository benchmark: a closed-loop load
// generator that spawns a freshly built eventdbd as a separate process,
// drives it only through the public client package, checks every output
// against a reference computed from the generated inputs, and prints
// one JSON result line.
//
// Usage (from the repository root; run.sh builds both binaries first):
//
//	bash evbench/run.sh --workload feed|orders|history --seed N --seconds S --trace 0|1
//
// Workloads:
//
//   - feed: market-data fan-out on an in-memory daemon. One binary-wire
//     publisher sends 64-event PUBB batches, four per op; one subscriber
//     connection holds SUB predicates, CQs and shared-automaton
//     PATTERNs. An op completes when every SUB delivery the reference
//     predicts for its batches has arrived.
//   - orders: OLTP with trigger capture on a durable daemon. An op is
//     six statements (INSERT, keyed UPDATE and DELETE, twice) that keep
//     a fixed live set; it completes when a second connection has
//     consumed and acknowledged their db.orders.* captures from a
//     manual-ack QSUB queue.
//   - history: analytical reads over columnar history sealed by a bulk
//     load plus COMPACT. An op is a range aggregate and a grouped
//     aggregate.
//
// With --trace 0 the result carries the end-to-end metrics. With
// --trace 1 the same workload runs untraced for the first half and
// traced for the second half (the difference is the tracing overhead),
// and the result carries the per-layer metrics: spans recorded around
// client calls and around in-process calls into each layer's exported
// functions, plus counters read over the wire. Spans are written to
// .bench_build/trace-<workload>-<seed>.jsonl when the run ends.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// setupRepeats is how many times a run spawns a daemon and does the
// workload's set-up; setup_s is their median. The last set-up is kept
// for the timed loop.
const setupRepeats = 3

// runDeadline bounds a whole run: past it the benchmark cleans up and
// fails instead of hanging.
const runDeadline = 170 * time.Second

// session is one workload's connections and state on a running daemon.
type session interface {
	// op performs operation i; a non-nil error counts as failed.
	op(i int64, tr *tracer) error
	// finish drains in-flight work and verifies the end state,
	// returning the number of wrong results it found.
	finish() (wrong int, err error)
	// counters reads the workload's wire counters (traced runs).
	counters() map[string]float64
	close()
}

type workload interface {
	durable() bool
	// setup does the fixed set-up work on a freshly spawned daemon.
	setup(d *daemon, tr *tracer) (session, error)
	// digest identifies the generated inputs.
	digest() string
}

func main() {
	os.Exit(run())
}

func run() (code int) {
	name := flag.String("workload", "", "feed, orders or history")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "timed loop length")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	daemonBin := flag.String("eventdbd", ".bench_build/eventdbd", "eventdbd binary")
	work := flag.String("workdir", ".bench_build", "scratch directory for data dirs and traces")
	flag.Parse()

	b := &bench{work: *work, bin: *daemonBin}
	defer b.cleanup()
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(os.Stderr, "evbench: panic: %v\n%s", r, debug.Stack())
			code = 1
		}
	}()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		s := <-sigs
		fmt.Fprintf(os.Stderr, "evbench: %v: stopping\n", s)
		b.cleanup()
		os.Exit(1)
	}()
	watchdog := time.AfterFunc(runDeadline, func() {
		fmt.Fprintln(os.Stderr, "evbench: run deadline exceeded")
		b.cleanup()
		os.Exit(1)
	})
	defer watchdog.Stop()

	if err := b.prepare(); err != nil {
		fmt.Fprintln(os.Stderr, "evbench:", err)
		return 1
	}
	wl, err := newWorkload(*name, *seed, *seconds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "evbench:", err)
		return 1
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "evbench: --seconds must be at least 1")
		return 1
	}
	facts := b.facts()
	facts["workload"] = *name
	facts["seed"] = *seed
	facts["input_digest"] = wl.digest()
	factLine, _ := json.Marshal(facts)
	fmt.Printf("facts %s\n", factLine)

	res, err := b.measure(wl, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "evbench:", err)
		return 1
	}
	metrics := res.endToEnd()
	if *trace == 1 {
		if metrics, err = res.perLayer(b, wl, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "evbench:", err)
			return 1
		}
		path := filepath.Join(b.work, fmt.Sprintf("trace-%s-%d.jsonl", *name, *seed))
		if err := res.tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "evbench:", err)
			return 1
		}
	}
	printSummary(res, metrics)
	out := map[string]any{
		"correct":   res.correct(),
		"attempted": res.attempted,
		"failed":    res.failed + res.wrong,
		"metrics":   metrics,
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "evbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.correct() {
		return 1
	}
	return 0
}

// metric is one named value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newWorkload(name string, seed int64, seconds int) (workload, error) {
	switch name {
	case "feed":
		return newFeed(seed, seconds), nil
	case "orders":
		return newOrders(seed, seconds), nil
	case "history":
		return newHistory(seed, seconds), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want feed, orders or history)", name)
}

// result collects one run's measurements.
type result struct {
	setups    []float64 // seconds, one per set-up
	attempted int64
	failed    int64
	wrong     int64
	lat       []float64 // µs per timed op
	ends      []float64 // s since the loop started, per timed op
	elapsed   time.Duration
	cpuTicks  uint64 // daemon utime+stime over the timed loop
	hwmKB     uint64
	diskBytes int64 // data dir growth over the timed loop

	// traced runs only
	sess         session
	tr           *tracer
	untraced     phase
	traced       phase
	wire         map[string]float64
	firstFailure error
}

// phase is one half of a traced run.
type phase struct {
	ops     int64
	elapsed time.Duration
}

func (r *result) correct() bool { return r.failed == 0 && r.wrong == 0 && r.attempted > 0 }

// Measurement windows: windowOps consecutive ops give one throughput
// figure (about a second of the slowest workload's loop), and
// tailWindowOps give one 99th percentile with ten samples beyond it.
// Reporting medians over the windows keeps a transient stall on a
// shared machine from moving the run's figures; a run has at least
// tailWindowOps ops.
const (
	windowOps     = 100
	tailWindowOps = 1000
)

// windows splits the timed ops into consecutive windows of size ops (a
// shorter tail is dropped unless it is the only window) and calls fn
// with each window's bounds.
func (r *result) windows(size int, fn func(lo, hi int)) {
	n := len(r.lat)
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			if lo > 0 {
				break
			}
			hi = n
		}
		fn(lo, hi)
	}
}

// windowRates returns each throughput window's completed ops per second.
func (r *result) windowRates() []float64 {
	var rate []float64
	r.windows(windowOps, func(lo, hi int) {
		t0 := 0.0
		if lo > 0 {
			t0 = r.ends[lo-1]
		}
		rate = append(rate, float64(hi-lo)/(r.ends[hi-1]-t0))
	})
	return rate
}

func (r *result) endToEnd() map[string]metric {
	ops := float64(len(r.lat))
	var p99 []float64
	r.windows(tailWindowOps, func(lo, hi int) {
		p99 = append(p99, percentile(r.lat[lo:hi], 0.99))
	})
	return map[string]metric{
		"ops_per_s":      {median(r.windowRates()), "ops/s"},
		"latency_p50_us": {percentile(r.lat, 0.50), "us"},
		"latency_p99_us": {median(p99), "us"},
		"cpu_us_per_op":  {float64(r.cpuTicks) * 1e6 / clockTicks / ops, "us"},
		"rss_peak_mb":    {float64(r.hwmKB) / 1024, "MiB"},
		"setup_s":        {median(r.setups), "s"},
	}
}

func printSummary(r *result, metrics map[string]metric) {
	errRate := 0.0
	if r.attempted > 0 {
		errRate = float64(r.failed+r.wrong) / float64(r.attempted)
	}
	rate := r.windowRates()
	fmt.Printf("ops attempted=%d failed=%d wrong=%d error_rate=%g timed=%d windows=%d of %d ops disk_bytes=%d setups_s=%s\n",
		r.attempted, r.failed, r.wrong, errRate, len(r.lat), len(rate), windowOps, r.diskBytes, fmtFloats(r.setups))
	if r.firstFailure != nil {
		fmt.Printf("first failure: %v\n", r.firstFailure)
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-32s %14.4f %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
}

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(parts, ",")
}

// measure runs the set-ups and the timed closed loop.
func (b *bench) measure(wl workload, dur time.Duration, traced bool) (*result, error) {
	res := &result{}
	var sess session
	var d *daemon
	var setupTr *tracer
	if traced {
		res.tr = newTracer()
		setupTr = res.tr
	}
	for i := 0; i < setupRepeats; i++ {
		if sess != nil {
			sess.close()
			b.stop(d)
		}
		start := time.Now()
		var err error
		d, err = b.spawn(wl.durable())
		if err != nil {
			return nil, err
		}
		sess, err = wl.setup(d, setupTr)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		res.setups = append(res.setups, time.Since(start).Seconds())
	}
	res.sess = sess
	defer func() {
		sess.close()
		b.stop(d)
	}()

	var i int64
	start := time.Now()
	// consecutive failures past this end the loop: the daemon is gone.
	const maxStreak = 50
	streak := 0
	loop := func(until time.Time, tr *tracer, lat *[]float64) (int64, bool) {
		var n int64
		for time.Now().Before(until) {
			t0 := time.Now()
			err := sess.op(i, tr)
			if errors.Is(err, errPoolExhausted) {
				return n, true
			}
			i++
			res.attempted++
			if err != nil {
				res.failed++
				if res.firstFailure == nil {
					res.firstFailure = err
				}
				streak++
				if streak >= maxStreak {
					return n, false
				}
				continue
			}
			streak = 0
			n++
			now := time.Now()
			*lat = append(*lat, float64(now.Sub(t0).Nanoseconds())/1e3)
			if lat == &res.lat {
				res.ends = append(res.ends, now.Sub(start).Seconds())
			}
		}
		return n, true
	}

	cpu0, err := d.cpuTicks()
	if err != nil {
		return nil, err
	}
	disk0 := d.diskBytes()
	start = time.Now()
	ok := true
	if traced {
		half := dur / 2
		var n int64
		var untracedLat []float64
		n, ok = loop(start.Add(half), nil, &untracedLat)
		res.untraced = phase{n, time.Since(start)}
		mid := time.Now()
		wire0 := sess.counters()
		if ok {
			n, ok = loop(mid.Add(dur-half), res.tr, &res.lat)
			res.traced = phase{n, time.Since(mid)}
		}
		res.wire = diffCounters(wire0, sess.counters(), res.traced.ops)
	} else {
		_, ok = loop(start.Add(dur), nil, &res.lat)
	}
	res.elapsed = time.Since(start)
	if traced {
		res.elapsed = res.traced.elapsed
	}
	cpu1, err := d.cpuTicks()
	if err != nil {
		return nil, err
	}
	res.cpuTicks = cpu1 - cpu0
	res.diskBytes = d.diskBytes() - disk0
	if !ok {
		return res, fmt.Errorf("%d consecutive failed ops, last: %w", maxStreak, res.firstFailure)
	}
	wrong, err := sess.finish()
	res.wrong = int64(wrong)
	if err != nil {
		return nil, fmt.Errorf("final check: %w", err)
	}
	if res.hwmKB, err = d.peakRSSKB(); err != nil {
		return nil, err
	}
	if len(res.lat) == 0 {
		return nil, errors.New("no op completed in the timed loop")
	}
	return res, nil
}

// diffCounters turns two counter snapshots into per-op deltas for the
// counters whose name ends in "_per_op", and keeps the others (gauges
// and maxima) as read at the end.
func diffCounters(before, after map[string]float64, ops int64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for k, v := range after {
		if strings.HasSuffix(k, "_per_op") {
			if ops > 0 {
				out[k] = (v - before[k]) / float64(ops)
			}
			continue
		}
		out[k] = v
	}
	return out
}

// digest hashes the generated op stream, so two runs on one seed can
// be shown to have sent the same input.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

// Write adds one record of the stream.
func (d *digest) Write(p []byte) {
	d.h.Write(p)
	d.h.Write([]byte{0})
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }

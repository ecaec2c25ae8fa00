package main

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"eventdb/client"
	"eventdb/internal/cep"
	"eventdb/internal/cq"
	"eventdb/internal/event"
	"eventdb/internal/expr"
	"eventdb/internal/val"
	marketgen "eventdb/internal/workload"
)

// Feed sizing. The pool holds more batches than a run at twice the
// measured rate can send; a run that exhausts it stops early.
const (
	feedSymbols          = 500
	feedBatch            = 64
	feedSubs             = 2000
	feedPatterns         = 1000
	feedBatchesPerSecond = 700
	// feedBatchesPerOp batches are published back to back in one op,
	// which then waits for all their deliveries: an op long enough that
	// one pause inside it does not set its latency.
	feedBatchesPerOp = 4
	// feedCrossCheck batches are evaluated against every filter, on
	// the decoded wire form, to confirm the per-symbol reference.
	feedCrossCheck = 4
	deliveryWait   = 10 * time.Second
	// feedWarmup ops are run during set-up, so CQ windows and pattern
	// instances are in steady state before timing.
	feedWarmup = 75
)

var venues = []string{"NYSE", "NASDAQ", "ARCA"}

// trade is one generated event in compact form.
type trade struct {
	id    uint64
	t     int64 // unix nanos
	price float64
	qty   int64
	sym   uint16
	venue uint8
}

func (tr *trade) event(syms []string) *event.Event {
	return &event.Event{
		ID:     event.ID(tr.id),
		Type:   "trade",
		Source: "feed/market",
		Time:   time.Unix(0, tr.t).UTC(),
		Attrs: map[string]val.Value{
			"sym":   val.String(syms[tr.sym]),
			"price": val.Float(tr.price),
			"qty":   val.Int(tr.qty),
			"venue": val.String(venues[tr.venue]),
		},
	}
}

type feedInputs struct {
	seed     int64
	seconds  int
	syms     []string
	trades   []trade
	filters  []string // SUB filters
	cqs      []cq.Def
	patterns []cep.Spec
	// reference: for batch b, matched sub indexes are
	// matches[matchOff[b]:matchOff[b+1]].
	matches  []uint16
	matchOff []int
	dig      string
}

type feed struct {
	*feedInputs
	once sync.Once
}

func newFeed(seed int64, seconds int) *feed {
	return &feed{feedInputs: &feedInputs{seed: seed, seconds: seconds}}
}

func (f *feed) durable() bool { return false }

func (f *feed) digest() string { f.generate(); return f.dig }

// generate builds the whole op stream and its reference once.
func (f *feed) generate() {
	f.once.Do(func() {
		in := f.feedInputs
		n := in.seconds * feedBatchesPerSecond
		if n < 4000 {
			n = 4000
		}
		gen := marketgen.NewTrades(in.seed, feedSymbols, 100)
		in.syms = gen.Symbols()
		symIdx := make(map[string]uint16, len(in.syms))
		for i, s := range in.syms {
			symIdx[s] = uint16(i)
		}
		venueIdx := map[string]uint8{"NYSE": 0, "NASDAQ": 1, "ARCA": 2}
		in.trades = make([]trade, n*feedBatch)
		firstPrice := make([]float64, feedSymbols)
		for i := range in.trades {
			ev := gen.Next()
			sym, _ := ev.Attrs["sym"].AsString()
			price, _ := ev.Attrs["price"].AsFloat()
			qty, _ := ev.Attrs["qty"].AsInt()
			venue, _ := ev.Attrs["venue"].AsString()
			in.trades[i] = trade{id: uint64(ev.ID), t: ev.Time.UnixNano(), price: price, qty: qty,
				sym: symIdx[sym], venue: venueIdx[venue]}
			if firstPrice[symIdx[sym]] == 0 {
				firstPrice[symIdx[sym]] = price
			}
		}
		rng := rand.New(rand.NewSource(in.seed ^ 0x5eed))
		bySym := make([][]int, feedSymbols)
		preds := make([]*expr.Predicate, feedSubs)
		for i := 0; i < feedSubs; i++ {
			s := uint16(i % feedSymbols)
			thr := math.Round(firstPrice[s]*(0.96+0.08*rng.Float64())*100) / 100
			in.filters = append(in.filters, fmt.Sprintf("sym = '%s' AND price > %.2f", in.syms[s], thr))
			bySym[s] = append(bySym[s], i)
			preds[i] = expr.MustCompile(in.filters[i])
		}
		in.cqs = []cq.Def{
			{Filter: "venue = 'NYSE' AND qty >= 900", GroupBy: []string{"sym"},
				Aggs:   []cq.AggDef{{Alias: "n", Kind: cq.Count}, {Alias: "px", Kind: cq.Avg, Attr: "price"}},
				Window: cq.Window{Kind: cq.CountWindow, Size: 256}},
			{Filter: "qty = 1000", GroupBy: []string{"venue"},
				Aggs:   []cq.AggDef{{Alias: "q", Kind: cq.Sum, Attr: "qty"}},
				Window: cq.Window{Kind: cq.TimeWindow, Duration: 5 * time.Second}},
			{Filter: "price > 140",
				Aggs:   []cq.AggDef{{Alias: "n", Kind: cq.Count}, {Alias: "hi", Kind: cq.Max, Attr: "price"}},
				Window: cq.Window{Kind: cq.CountWindow, Size: 64}},
			{Filter: "sym = 'SYM000' OR sym = 'SYM001'",
				Aggs:   []cq.AggDef{{Alias: "lo", Kind: cq.Min, Attr: "price"}},
				Window: cq.Window{Kind: cq.TimeWindow, Duration: 10 * time.Second}},
		}
		for i := 0; i < feedPatterns; i++ {
			s := in.syms[i%feedSymbols]
			if i%2 == 0 {
				in.patterns = append(in.patterns, cep.Spec{Within: "10s", Steps: []cep.StepSpec{
					{Alias: "a", Type: "trade", Guard: fmt.Sprintf("sym = '%s' AND qty >= 800", s)},
					{Alias: "b", Type: "trade", Guard: "sym = a.sym AND price < a.price"},
				}})
			} else {
				in.patterns = append(in.patterns, cep.Spec{Within: "3s", Steps: []cep.StepSpec{
					{Alias: "a", Type: "trade", Guard: fmt.Sprintf("sym = '%s' AND venue = 'NYSE'", s)},
					{Alias: "b", Type: "trade", Guard: "sym = a.sym AND qty > a.qty"},
				}})
			}
		}
		// Reference: every filter of the event's symbol, evaluated with
		// internal/expr. A filter of another symbol cannot match (its
		// sym conjunct is false); the cross-check below proves it on
		// the first batches.
		in.matchOff = make([]int, n+1)
		for b := 0; b < n; b++ {
			for k := 0; k < feedBatch; k++ {
				tr := &in.trades[b*feedBatch+k]
				ev := tr.event(in.syms)
				for _, si := range bySym[tr.sym] {
					if ok, err := preds[si].Match(ev); err == nil && ok {
						in.matches = append(in.matches, uint16(si))
					}
				}
			}
			in.matchOff[b+1] = len(in.matches)
		}
		for b := 0; b < feedCrossCheck; b++ {
			want := countSubs(in.matches[in.matchOff[b]:in.matchOff[b+1]])
			got := map[int]int{}
			for k := 0; k < feedBatch; k++ {
				data, err := event.MarshalJSONEvent(in.trades[b*feedBatch+k].event(in.syms))
				if err != nil {
					panic(err)
				}
				ev, err := event.UnmarshalJSONEvent(data)
				if err != nil {
					panic(err)
				}
				for si, p := range preds {
					if ok, err := p.Match(ev); err == nil && ok {
						got[si]++
					}
				}
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				panic(fmt.Sprintf("feed reference disagrees with full evaluation on batch %d", b))
			}
		}
		buf := make([]byte, 0, 48)
		h := newDigest()
		for _, tr := range in.trades {
			buf = binary.LittleEndian.AppendUint64(buf[:0], tr.id)
			buf = binary.LittleEndian.AppendUint64(buf, uint64(tr.t))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(tr.price))
			buf = binary.LittleEndian.AppendUint64(buf, uint64(tr.qty))
			buf = binary.LittleEndian.AppendUint16(buf, tr.sym)
			buf = append(buf, tr.venue)
			h.Write(buf)
		}
		for _, fl := range in.filters {
			h.Write([]byte(fl))
		}
		for _, d := range in.cqs {
			spec, _ := cq.MarshalSpec(d)
			h.Write(spec)
		}
		for _, p := range in.patterns {
			spec, _ := json.Marshal(p)
			h.Write(spec)
		}
		in.dig = h.sum()
	})
}

func countSubs(idx []uint16) map[int]int {
	m := map[int]int{}
	for _, si := range idx {
		m[int(si)]++
	}
	return m
}

func (f *feed) batches() int { return len(f.matchOff) - 1 }

// batch materialises batch b as events.
func (f *feed) batch(b int) []*event.Event {
	evs := make([]*event.Event, feedBatch)
	for k := range evs {
		evs[k] = f.trades[b*feedBatch+k].event(f.syms)
	}
	return evs
}

type feedSession struct {
	f        *feed
	pub, sub *client.Conn
	subs     []*client.Subscription
	counts   []atomic.Int64 // deliveries per SUB
	cqPushes atomic.Int64
	received atomic.Int64 // SUB deliveries, all subs
	target   atomic.Int64
	reached  chan struct{}
	expected int64 // cumulative SUB deliveries the reference predicts
	sent     int   // batches published
	drainers sync.WaitGroup
	outqMax  float64
}

var errPoolExhausted = errors.New("input pool exhausted")

func (f *feed) setup(d *daemon, tr *tracer) (session, error) {
	addr := d.addr
	f.generate()
	s := &feedSession{f: f, reached: make(chan struct{}, 1), counts: make([]atomic.Int64, feedSubs)}
	var err error
	if s.pub, err = client.Dial(addr, client.WithBinary()); err != nil {
		return nil, err
	}
	if s.sub, err = client.Dial(addr, client.WithBinary()); err != nil {
		s.pub.Close()
		return nil, err
	}
	for i, fl := range f.filters {
		sub, err := s.sub.Subscribe(fmt.Sprintf("s%04d", i), fl, 1024)
		if err != nil {
			s.close()
			return nil, fmt.Errorf("SUB %d: %w", i, err)
		}
		s.subs = append(s.subs, sub)
		s.drainers.Add(1)
		go s.drain(i, sub)
	}
	for i, d := range f.cqs {
		sub, err := s.sub.ContinuousQuery(fmt.Sprintf("cq%d", i), d, 4096)
		if err != nil {
			s.close()
			return nil, fmt.Errorf("CQ %d: %w", i, err)
		}
		s.drainers.Add(1)
		go func() {
			defer s.drainers.Done()
			for range sub.C {
				s.cqPushes.Add(1)
			}
		}()
	}
	for i, p := range f.patterns {
		if err := s.sub.Pattern(fmt.Sprintf("p%04d", i), p); err != nil {
			s.close()
			return nil, fmt.Errorf("PATTERN %d: %w", i, err)
		}
	}
	// A round trip on each connection: every registration is live.
	if err := s.sub.Ping(); err != nil {
		s.close()
		return nil, err
	}
	if err := s.pub.Ping(); err != nil {
		s.close()
		return nil, err
	}
	for i := 0; i < feedWarmup; i++ {
		if err := s.op(-1, nil); err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return s, nil
}

// drain counts one subscription's deliveries and wakes the publisher
// once the awaited total is reached.
func (s *feedSession) drain(i int, sub *client.Subscription) {
	defer s.drainers.Done()
	for range sub.C {
		s.counts[i].Add(1)
		if s.received.Add(1) >= s.target.Load() {
			select {
			case s.reached <- struct{}{}:
			default:
			}
		}
	}
}

// await blocks until the cumulative SUB delivery count reaches want.
func (s *feedSession) await(want int64) error {
	s.target.Store(want)
	deadline := time.NewTimer(deliveryWait)
	defer deadline.Stop()
	for s.received.Load() < want {
		select {
		case <-s.reached:
		case <-deadline.C:
			return fmt.Errorf("deliveries: have %d, want %d", s.received.Load(), want)
		}
	}
	return nil
}

func (s *feedSession) op(i int64, tr *tracer) error {
	if s.sent+feedBatchesPerOp > s.f.batches() {
		return errPoolExhausted
	}
	root := tr.begin("op", i, -1)
	first := s.sent
	for k := 0; k < feedBatchesPerOp; k++ {
		if err := s.publish(i, root, tr); err != nil {
			tr.end(root)
			return err
		}
	}
	if tr != nil && i%8 == 0 {
		tr.timed("client.stats", i, root, func() {
			if st, err := s.sub.Stats(); err == nil && float64(st.Queued) > s.outqMax {
				s.outqMax = float64(st.Queued)
			}
		})
	}
	wait := tr.begin("client.await_deliveries", i, root)
	err := s.await(s.expected)
	tr.end(wait)
	tr.end(root)
	if tr != nil {
		tr.add("client.deliveries", float64(s.f.matchOff[s.sent]-s.f.matchOff[first]))
	}
	return err
}

// publish sends the next batch as one PUBB and adds its predicted
// deliveries to the awaited total.
func (s *feedSession) publish(i int64, root int, tr *tracer) error {
	b := s.sent
	evs := s.f.batch(b)
	if tr != nil {
		tr.timed("client.encode", i, root, func() {
			for _, ev := range evs {
				data, _ := event.MarshalJSONEvent(ev)
				tr.add("client.encode_bytes", float64(len(data)))
			}
		})
		tr.add("client.encoded_events", float64(len(evs)))
	}
	call := tr.begin("client.call", i, root)
	n, err := s.pub.PublishBatch(evs)
	tr.end(call)
	s.sent++
	s.expected += int64(s.f.matchOff[b+1] - s.f.matchOff[b])
	if err != nil {
		return err
	}
	if n != len(evs) {
		return fmt.Errorf("PUBB accepted %d of %d", n, len(evs))
	}
	return nil
}

func (s *feedSession) finish() (int, error) {
	if err := s.await(s.expected); err != nil {
		return 0, err
	}
	want := make([]int64, feedSubs)
	for _, si := range s.f.matches[:s.f.matchOff[s.sent]] {
		want[si]++
	}
	wrong := 0
	for i := range want {
		if got := s.counts[i].Load(); got != want[i] || s.subs[i].Dropped() > 0 {
			if wrong == 0 {
				fmt.Printf("feed check: SUB %d delivered %d, reference %d, dropped %d\n", i, got, want[i], s.subs[i].Dropped())
			}
			wrong++
		}
	}
	fmt.Printf("feed check: batches=%d sub_deliveries=%d subs_wrong=%d cq_pushes=%d\n",
		s.sent, s.received.Load(), wrong, s.cqPushes.Load())
	return wrong, nil
}

func (s *feedSession) counters() map[string]float64 {
	m := wireCounters(s.sub)
	m["server.outq_depth_max"] = s.outqMax
	return m
}

func (s *feedSession) close() {
	if s.pub != nil {
		s.pub.Close()
	}
	if s.sub != nil {
		s.sub.Close() // closes every subscription channel
	}
	s.drainers.Wait()
}

// wireCounters reads the counters every workload shares: pushes and
// drops on the connection c (STATS), ingest and WAL position (HEALTH),
// and live pattern instances.
func wireCounters(c *client.Conn) map[string]float64 {
	m := map[string]float64{}
	if data, err := c.StatsJSON(); err == nil {
		var st struct {
			Sent     float64 `json:"sent"`
			Dropped  float64 `json:"dropped"`
			Patterns struct {
				Instances float64 `json:"instances"`
			} `json:"patterns"`
		}
		if json.Unmarshal(data, &st) == nil {
			m["server.pushes_per_op"] = st.Sent
			m["server.push_dropped"] = st.Dropped
			m["cep.instances_live"] = st.Patterns.Instances
		}
	}
	if h, err := c.Health(); err == nil {
		m["core.ingested_per_op"] = float64(h.Ingested)
		m["wal.records_per_op"] = float64(h.NextLSN)
	}
	return m
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"sort"
	"strings"
	"sync"
	"time"

	"eventdb/client"
)

// History sizing: rows bulk-loaded at set-up (well above the 8192-row
// seal threshold), symbols, and the width of the range query's id
// window. An op is one dashboard refresh: the range aggregate followed
// by the grouped aggregate, so every op does the same mix of work.
const (
	historyRows          = 40000
	historySyms          = 50
	historyRange         = 2048
	historyQueriesPerOp  = 2
	historyQueriesPerSec = 1500
	// historyWarmup ops run during set-up, after COMPACT.
	historyWarmup = 100
)

type tick struct {
	id    int64
	sym   string
	venue string
	price float64
	qty   int64
}

// histQuery is one generated SELECT and the result the generator
// computed for it from the rows it loads.
type histQuery struct {
	spec client.QuerySpec
	want [][]any
}

type historyInputs struct {
	seed    int64
	seconds int
	rows    []tick
	queries []histQuery
	dig     string
}

type history struct {
	*historyInputs
	once sync.Once
}

func newHistory(seed int64, seconds int) *history {
	return &history{historyInputs: &historyInputs{seed: seed, seconds: seconds}}
}

func (h *history) durable() bool { return true }

func (h *history) digest() string { h.generate(); return h.dig }

// generate makes the rows and alternates two SELECTs: a range-filtered
// ungrouped aggregate zone maps can prune, and a grouped aggregate with
// an equality filter.
func (h *history) generate() {
	h.once.Do(func() {
		rng := rand.New(rand.NewSource(h.seed))
		for i := 0; i < historyRows; i++ {
			h.rows = append(h.rows, tick{
				id:    int64(i + 1),
				sym:   fmt.Sprintf("SYM%03d", rng.Intn(historySyms)),
				venue: venues[rng.Intn(len(venues))],
				price: float64(5000+rng.Intn(10000)) / 100,
				qty:   int64(1+rng.Intn(20)) * 50,
			})
		}
		// grouped[sym] is the per-venue aggregate over that symbol's rows.
		type agg struct {
			n, qty int64
			hi     float64
		}
		bySym := map[string]map[string]*agg{}
		for _, r := range h.rows {
			by := bySym[r.sym]
			if by == nil {
				by = map[string]*agg{}
				bySym[r.sym] = by
			}
			a := by[r.venue]
			if a == nil {
				a = &agg{hi: math.Inf(-1)}
				by[r.venue] = a
			}
			a.n++
			a.qty += r.qty
			a.hi = math.Max(a.hi, r.price)
		}
		grouped := make(map[string][][]any, len(bySym))
		for sym, by := range bySym {
			var rows [][]any
			for venue, a := range by {
				rows = append(rows, []any{venue, a.n, a.qty, a.hi})
			}
			sort.Slice(rows, func(i, j int) bool { return rows[i][0].(string) < rows[j][0].(string) })
			grouped[sym] = rows
		}
		n := h.seconds * historyQueriesPerSec
		for i := 0; i < n; i++ {
			if i%2 == 0 {
				lo := int64(1 + rng.Intn(historyRows-historyRange))
				hi := lo + historyRange
				var cnt, qty int64
				mn, mx := math.Inf(1), math.Inf(-1)
				for _, r := range h.rows[lo-1 : hi-1] {
					cnt++
					qty += r.qty
					mn = math.Min(mn, r.price)
					mx = math.Max(mx, r.price)
				}
				h.queries = append(h.queries, histQuery{
					spec: client.QuerySpec{Table: "ticks", Where: fmt.Sprintf("id >= %d AND id < %d", lo, hi),
						Aggs: []client.AggSpec{{Alias: "n", Kind: "count"}, {Alias: "qty", Kind: "sum", Col: "qty"},
							{Alias: "lo", Kind: "min", Col: "price"}, {Alias: "hi", Kind: "max", Col: "price"}}},
					want: [][]any{{cnt, qty, mn, mx}},
				})
				continue
			}
			sym := fmt.Sprintf("SYM%03d", rng.Intn(historySyms))
			h.queries = append(h.queries, histQuery{
				spec: client.QuerySpec{Table: "ticks", Where: fmt.Sprintf("sym = '%s'", sym), Group: []string{"venue"},
					Aggs: []client.AggSpec{{Alias: "n", Kind: "count"}, {Alias: "qty", Kind: "sum", Col: "qty"},
						{Alias: "hi", Kind: "max", Col: "price"}},
					Order: []client.OrderSpec{{Col: "venue"}}},
				want: grouped[sym],
			})
		}
		d := newDigest()
		for _, r := range h.rows {
			d.Write([]byte(fmt.Sprintf("%d %s %s %g %d", r.id, r.sym, r.venue, r.price, r.qty)))
		}
		for _, q := range h.queries {
			data, _ := json.Marshal(q.spec)
			d.Write(data)
		}
		h.dig = d.sum()
	})
}

type historySession struct {
	h       *history
	c       *client.Conn
	next    int
	compact []columnStats // COMPACT reply at the end of set-up
	sealS   float64       // COMPACT wall time at the end of set-up
}

// columnStats is one table's entry in a COMPACT format=json reply.
type columnStats struct {
	Table       string `json:"table"`
	Segments    int    `json:"segments"`
	SealedRows  int    `json:"sealed_rows"`
	DeadRows    int    `json:"dead_rows"`
	PendingRows int    `json:"pending_rows"`
}

func (h *history) setup(d *daemon, tr *tracer) (session, error) {
	h.generate()
	s := &historySession{h: h}
	var err error
	if s.c, err = client.Dial(d.addr); err != nil {
		return nil, err
	}
	err = s.c.CreateTable(client.TableSpec{Name: "ticks", Key: []string{"id"}, Columns: []client.ColumnSpec{
		{Name: "id", Kind: "int", NotNull: true}, {Name: "sym", Kind: "string"}, {Name: "venue", Kind: "string"},
		{Name: "price", Kind: "float"}, {Name: "qty", Kind: "int"},
	}})
	if err != nil {
		s.close()
		return nil, fmt.Errorf("TABLE: %w", err)
	}
	for _, r := range h.rows {
		_, err := s.c.Insert("ticks", map[string]any{"id": r.id, "sym": r.sym, "venue": r.venue, "price": r.price, "qty": r.qty})
		if err != nil {
			s.close()
			return nil, fmt.Errorf("load: %w", err)
		}
	}
	start := time.Now()
	s.compact, err = compact(d.addr, "ticks")
	s.sealS = time.Since(start).Seconds()
	if err != nil {
		s.close()
		return nil, err
	}
	for i := 0; i < historyWarmup; i++ {
		if err := s.op(-1, nil); err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return s, nil
}

// compact issues COMPACT on a short-lived text connection: the client
// package has no call for it.
func compact(addr, table string) ([]columnStats, error) {
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(30 * time.Second))
	if _, err := fmt.Fprintf(nc, "COMPACT %s format=json\n", table); err != nil {
		return nil, err
	}
	line, err := bufio.NewReader(nc).ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("COMPACT: %w", err)
	}
	body, ok := strings.CutPrefix(strings.TrimSpace(line), "OK ")
	if !ok {
		return nil, fmt.Errorf("COMPACT: %s", strings.TrimSpace(line))
	}
	var st []columnStats
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		return nil, fmt.Errorf("COMPACT reply: %w", err)
	}
	return st, nil
}

func (s *historySession) op(i int64, tr *tracer) error {
	if s.next+historyQueriesPerOp > len(s.h.queries) {
		return errPoolExhausted
	}
	for k := 0; k < historyQueriesPerOp; k++ {
		q := &s.h.queries[s.next]
		s.next++
		call := tr.begin("client.call", i, -1)
		res, err := s.c.Select(q.spec)
		tr.end(call)
		if err != nil {
			return err
		}
		if !sameRows(res.Rows, q.want) {
			return fmt.Errorf("SELECT %s: got %v, want %v", q.spec.Where, res.Rows, q.want)
		}
	}
	return nil
}

// sameRows compares a SELECT result with the reference, reading
// numbers as float64 (integral floats arrive as int64).
func sameRows(got, want [][]any) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			return false
		}
		for j := range got[i] {
			g, gok := toFloat(got[i][j])
			w, wok := toFloat(want[i][j])
			if gok != wok || (gok && g != w) || (!gok && got[i][j] != want[i][j]) {
				return false
			}
		}
	}
	return true
}

// finish has nothing to drain: every SELECT was checked as it returned.
func (s *historySession) finish() (int, error) {
	fmt.Printf("history check: selects=%d all matched the reference\n", s.next)
	return 0, nil
}

func (s *historySession) counters() map[string]float64 {
	m := wireCounters(s.c)
	var segs, sealed, rows float64
	for _, t := range s.compact {
		segs += float64(t.Segments)
		sealed += float64(t.SealedRows)
		rows += float64(t.SealedRows + t.PendingRows)
	}
	m["columnar.segments"] = segs
	if rows > 0 {
		m["columnar.sealed_rows_share"] = sealed / rows
	}
	m["columnar.seal_s"] = s.sealS
	return m
}

func (s *historySession) close() {
	if s.c != nil {
		s.c.Close()
	}
}

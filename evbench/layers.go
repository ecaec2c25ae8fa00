package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"eventdb/internal/cep"
	"eventdb/internal/core"
	"eventdb/internal/cq"
	"eventdb/internal/event"
	"eventdb/internal/expr"
	"eventdb/internal/metrics"
	"eventdb/internal/pubsub"
	"eventdb/internal/queue"
	"eventdb/internal/storage"
	"eventdb/internal/trigger"
	"eventdb/internal/val"
	"eventdb/internal/wiredb"
)

// In-process layer replays: each layer's exported functions run on the
// workload's own generated inputs, one span per replayed batch or op,
// so a layer's cost can be read without tracing inside the daemon.
// Every traced run replays all three workloads' layers; the wire
// counters and client spans come from the workload that ran.
const (
	replayFeedBatches = 48  // per pass; three passes
	replayOrdersOps   = 900 // after a preload of the live set
	replayQueries     = 300
)

// layerCost holds per-unit costs from the replays, in µs.
type layerCost map[string]float64

// perLayer derives the per-layer metrics of a traced run.
func (r *result) perLayer(b *bench, wl workload, seed int64) (map[string]metric, error) {
	tr := r.tr
	cost := layerCost{}
	f, ok := wl.(*feed)
	if !ok {
		f = newFeed(seed, 1)
	}
	replayFeed(f, tr, cost)
	o, ok := wl.(*orders)
	if !ok {
		o = newOrders(seed, 1)
	}
	if err := replayOrders(o, b.work, tr, cost); err != nil {
		return nil, fmt.Errorf("orders replay: %w", err)
	}
	h, ok := wl.(*history)
	if !ok {
		h = newHistory(seed, 1)
	}
	if err := replayHistory(h, tr, cost); err != nil {
		return nil, fmt.Errorf("history replay: %w", err)
	}

	call := median(tr.durations("client.call"))
	// The daemon's own share of an op: the client call minus the
	// replayed layer work that op causes inside the daemon.
	var inServer float64
	switch wl.(type) {
	case *feed:
		inServer = feedBatch * (cost["event.decode"] + cost["core.ingest"] + cost["cq.eval"])
	case *orders:
		inServer = (cost["orders.insert"] + cost["orders.update"] + cost["orders.delete"]) / 3
	case *history:
		inServer = cost["query.run"] + cost["wiredb.result_encode"]
	}
	perEvent := func(span, count string) float64 {
		if n := tr.count[count]; n > 0 {
			return tr.total(span) / n
		}
		return 0
	}
	errRate := 0.0
	if r.attempted > 0 {
		errRate = float64(r.failed+r.wrong) / float64(r.attempted)
	}
	overhead := 0.0
	if r.untraced.ops > 0 && r.traced.ops > 0 {
		u := float64(r.untraced.ops) / r.untraced.elapsed.Seconds()
		t := float64(r.traced.ops) / r.traced.elapsed.Seconds()
		overhead = 1 - t/u
	}
	var lags []float64
	if s, ok := r.sess.(*ordersSession); ok {
		lags = s.captureLags()
	}
	opsTimed := float64(r.untraced.ops + r.traced.ops)
	w := r.wire
	m := map[string]metric{
		"client.call_us":                {call, "us"},
		"client.encode_us_per_event":    {perEvent("client.encode", "client.encoded_events"), "us"},
		"client.decode_us_per_delivery": {cost["client.decode"], "us"},
		"server.self_us_per_op":         {call - inServer, "us"},
		"server.pushes_per_op":          {w["server.pushes_per_op"], "lines"},
		"server.push_dropped":           {w["server.push_dropped"], "count"},
		"server.outq_depth_max":         {w["server.outq_depth_max"], "lines"},
		"event.decode_us_per_event":     {cost["event.decode"], "us"},
		"event.encode_us_per_event":     {cost["event.encode"], "us"},
		"event.bytes_per_event":         {cost["event.bytes"], "B"},
		"core.ingest_us_per_event":      {cost["core.ingest"], "us"},
		"core.ingested_per_op":          {w["core.ingested_per_op"], "events"},
		"metrics.lookup_us_per_event":   {cost["metrics.lookup"], "us"},
		"pubsub.match_us_per_event":     {cost["pubsub.match"], "us"},
		"pubsub.match_ratio":            {cost["pubsub.match_ratio"], "ratio"},
		"cq.eval_us_per_event":          {cost["cq.eval"], "us"},
		"cep.feed_us_per_event":         {cost["cep.feed"], "us"},
		"cep.instances_live":            {w["cep.instances_live"], "count"},
		"expr.compile_us":               {cost["expr.compile"], "us"},
		"cep.register_us":               {cost["cep.register"], "us"},
		"storage.commit_us":             {cost["storage.commit"], "us"},
		"wiredb.update_us":              {cost["wiredb.update"], "us"},
		"wal.records_per_op":            {w["wal.records_per_op"], "records"},
		"wal.bytes_per_op":              {w["wal.bytes_per_op"], "B"},
		"trigger.capture_us_per_change": {cost["trigger.capture"], "us"},
		"trigger.events_per_op":         {w["trigger.events_per_op"], "events"},
		"queue.deliver_lag_us":          {median(lags), "us"},
		"queue.ack_us":                  {median(tr.durations("queue.ack")), "us"},
		"queue.redelivered":             {w["queue.redelivered"], "count"},
		"queue.dead":                    {w["queue.dead"], "count"},
		"query.run_us":                  {cost["query.run"], "us"},
		"wiredb.result_encode_us":       {cost["wiredb.result_encode"], "us"},
		"columnar.segments":             {w["columnar.segments"], "count"},
		"columnar.sealed_rows_share":    {w["columnar.sealed_rows_share"], "ratio"},
		"columnar.seal_s":               {w["columnar.seal_s"], "s"},
		"disk_bytes_per_op":             {float64(r.diskBytes) / opsTimed, "B"},
		"error_rate":                    {errRate, "ratio"},
		"trace.overhead_share":          {overhead, "ratio"},
	}
	return m, nil
}

// unitCost times fn over several passes and returns the median per-unit
// cost in µs; fn returns how many units a pass did.
func unitCost(tr *tracer, name string, passes int, fn func(pass int) int) float64 {
	var per []float64
	for p := 0; p < passes; p++ {
		i := tr.begin(name, int64(p), -1)
		t0 := time.Now()
		n := fn(p)
		d := time.Since(t0)
		tr.end(i)
		if n > 0 {
			per = append(per, float64(d.Nanoseconds())/1e3/float64(n))
		}
	}
	return median(per)
}

func replayFeed(f *feed, tr *tracer, cost layerCost) {
	f.generate()
	const passes = 3
	batches := func(p int) [][]*event.Event {
		out := make([][]*event.Event, replayFeedBatches)
		for k := range out {
			out[k] = f.batch(p*replayFeedBatches + k)
		}
		return out
	}
	var wire [][]byte
	var bytes int
	cost["event.encode"] = unitCost(tr, "event.encode", passes, func(p int) int {
		n := 0
		for _, b := range batches(p) {
			for _, ev := range b {
				data, err := event.MarshalJSONEvent(ev)
				if err != nil {
					panic(err)
				}
				if p == 0 {
					wire = append(wire, data)
					bytes += len(data)
				}
				n++
			}
		}
		return n
	})
	cost["event.bytes"] = float64(bytes) / float64(len(wire))
	cost["event.decode"] = unitCost(tr, "event.decode", passes, func(int) int {
		for _, data := range wire {
			if _, err := event.UnmarshalJSONEvent(data); err != nil {
				panic(err)
			}
		}
		return len(wire)
	})
	cost["expr.compile"] = unitCost(tr, "expr.compile", passes, func(int) int {
		for _, fl := range f.filters {
			if _, err := expr.Compile(fl); err != nil {
				panic(err)
			}
		}
		return len(f.filters)
	})
	specs := make([][]byte, len(f.patterns))
	for i, p := range f.patterns {
		specs[i], _ = json.Marshal(p)
	}
	var nfa *cep.Shared
	cost["cep.register"] = unitCost(tr, "cep.register", passes, func(int) int {
		nfa = cep.NewShared()
		for i, spec := range specs {
			p, err := cep.ParseSpec("p"+strconv.Itoa(i), spec)
			if err != nil {
				panic(err)
			}
			if err := nfa.Add(p); err != nil {
				panic(err)
			}
		}
		return len(specs)
	})
	cost["cep.feed"] = unitCost(tr, "cep.feed", passes, func(p int) int {
		n := 0
		for _, b := range batches(p) {
			for _, ev := range b {
				nfa.Feed(ev)
				n++
			}
		}
		return n
	})
	var cqs []*cq.CQ
	for i, d := range f.cqs {
		d.Name = "cq" + strconv.Itoa(i)
		q, err := cq.New(d)
		if err != nil {
			panic(err)
		}
		cqs = append(cqs, q)
	}
	cost["cq.eval"] = unitCost(tr, "cq.eval", passes, func(p int) int {
		n := 0
		for _, b := range batches(p) {
			for _, ev := range b {
				for _, q := range cqs {
					if _, err := q.Feed(ev); err != nil {
						panic(err)
					}
				}
				n++
			}
		}
		return n
	})
	broker := pubsub.NewBroker()
	for i, fl := range f.filters {
		if err := broker.Subscribe("s"+strconv.Itoa(i), "bench", fl, func(pubsub.Delivery) {}); err != nil {
			panic(err)
		}
	}
	var matched, evaluated float64
	var nMatch []int // per event of pass 0, in wire order
	cost["pubsub.match"] = unitCost(tr, "pubsub.match", passes, func(p int) int {
		n := 0
		for _, b := range batches(p) {
			for _, ev := range b {
				ids, err := broker.MatchOnly(ev)
				if err != nil {
					panic(err)
				}
				if p == 0 {
					matched += float64(len(ids))
					evaluated++
					nMatch = append(nMatch, len(ids))
				}
				n++
			}
		}
		return n
	})
	cost["pubsub.match_ratio"] = matched / (evaluated * float64(len(f.filters)))
	// The client decodes one pushed copy of an event per SUB it matched.
	var delivered [][]byte
	for k, n := range nMatch {
		for j := 0; j < n; j++ {
			delivered = append(delivered, wire[k])
		}
	}
	cost["client.decode"] = unitCost(tr, "client.decode", passes, func(int) int {
		for _, data := range delivered {
			if _, err := event.UnmarshalJSONEvent(data); err != nil {
				panic(err)
			}
		}
		return len(delivered)
	})
	reg := metrics.NewRegistry()
	cost["metrics.lookup"] = unitCost(tr, "metrics.lookup", passes, func(int) int {
		const n = 4096
		for i := 0; i < n; i++ {
			reg.Counter("events.in").Inc()
			reg.Counter("events.delivered").Add(1)
			reg.Histogram("ingest.latency").Observe(time.Duration(i) * time.Microsecond)
		}
		return n
	})
	// The engine's ingest with the feed's registrations (SUB handlers
	// are no-ops; CQs live in the server, not the engine).
	eng, err := core.Open(core.Config{})
	if err != nil {
		panic(err)
	}
	defer eng.Close()
	for i, fl := range f.filters {
		if err := eng.Subscribe("s"+strconv.Itoa(i), "bench", fl, func(pubsub.Delivery) {}); err != nil {
			panic(err)
		}
	}
	for i, spec := range specs {
		if err := eng.RegisterPattern("p"+strconv.Itoa(i), spec); err != nil {
			panic(err)
		}
	}
	cost["core.ingest"] = unitCost(tr, "core.ingest", passes, func(p int) int {
		n := 0
		for _, b := range batches(p) {
			if err := eng.IngestBatch(b); err != nil {
				panic(err)
			}
			n += len(b)
		}
		return n
	})
}

var ordersTableSpec = []byte(`{"name":"orders","key":["id"],"columns":[{"name":"id","kind":"int","notnull":true},` +
	`{"name":"cust","kind":"string"},{"name":"sym","kind":"string"},{"name":"qty","kind":"int"},` +
	`{"name":"price","kind":"float"},{"name":"status","kind":"string"}]}`)

// replayOrders runs the orders op stream on an in-process durable
// engine set up like the daemon (table, AFTER trigger, queue binding),
// plus bare storage commits on a database with no hooks.
func replayOrders(o *orders, work string, tr *tracer, cost layerCost) error {
	o.generate()
	dir, err := os.MkdirTemp(work, "data-replay-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	schema, err := wiredb.ParseTableSpec(ordersTableSpec)
	if err != nil {
		return err
	}
	plain, err := storage.Open(storage.Options{Dir: filepath.Join(dir, "plain")})
	if err != nil {
		return err
	}
	defer plain.Close()
	if err := plain.CreateTable(schema); err != nil {
		return err
	}
	rows := make([]map[string]val.Value, 0, len(o.preload))
	for _, r := range o.preload {
		v, err := wiredb.Values(schema, r.values())
		if err != nil {
			return err
		}
		rows = append(rows, v)
	}
	cost["storage.commit"] = unitCost(tr, "storage.commit", 1, func(int) int {
		for _, v := range rows {
			if _, err := plain.Insert("orders", v); err != nil {
				panic(err)
			}
		}
		return len(rows)
	})

	eng, err := core.Open(core.Config{Dir: filepath.Join(dir, "engine")})
	if err != nil {
		return err
	}
	defer eng.Close()
	if err := eng.DB.CreateTable(schema); err != nil {
		return err
	}
	def, err := wiredb.TriggerSpec{Table: "orders", Timing: "after"}.Def("ordcap")
	if err != nil {
		return err
	}
	if _, err := eng.Triggers.Register(def); err != nil {
		return err
	}
	q, err := eng.EnsureQueue(ordersQueue, queue.Config{})
	if err != nil {
		return err
	}
	if err := eng.SubscribeQueue("qsub."+ordersQueue, "wire", "table = 'orders'", ordersQueue, 0); err != nil {
		return err
	}
	var changes []storage.Change
	eng.DB.OnCommit(func(ci *storage.CommitInfo) {
		for _, c := range ci.Changes {
			if c.Table == "orders" {
				changes = append(changes, c)
			}
		}
	})
	drain := func() {
		for {
			msg, ok, err := q.Dequeue("bench")
			if err != nil || !ok {
				return
			}
			q.Ack(msg.Receipt)
		}
	}
	for _, r := range o.preload {
		if _, err := wiredb.InsertRow(eng.DB, "orders", r.values()); err != nil {
			return err
		}
	}
	drain()
	tally := map[string][]float64{}
	n := min(replayOrdersOps, len(o.ops))
	for i, op := range o.ops[:n] {
		name := "orders." + opNames[op.kind]
		sp := tr.begin(name, int64(i), -1)
		t0 := time.Now()
		key := "id = " + strconv.FormatInt(op.row.ID, 10)
		var err error
		switch op.kind {
		case opInsert:
			_, err = wiredb.InsertRow(eng.DB, "orders", op.row.values())
		case opUpdate:
			_, err = wiredb.UpdateWhere(eng.DB, "orders", key, map[string]any{"status": "done"})
		case opDelete:
			_, err = wiredb.DeleteWhere(eng.DB, "orders", key)
		}
		tally[name] = append(tally[name], float64(time.Since(t0).Nanoseconds())/1e3)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("%s %d: %w", name, op.row.ID, err)
		}
		drain()
	}
	for k, v := range tally {
		cost[k] = median(v)
	}
	// A keyed UpdateWhere at the live-set size.
	cost["wiredb.update"] = cost["orders.update"]
	cost["trigger.capture"] = unitCost(tr, "trigger.capture", 3, func(int) int {
		for i := range changes {
			trigger.ChangeToEvent(schema, &changes[i], "db")
		}
		return len(changes)
	})
	return nil
}

// replayHistory loads the history rows into an in-process engine with
// the daemon's seal threshold, compacts, and runs the query stream.
func replayHistory(h *history, tr *tracer, cost layerCost) error {
	h.generate()
	eng, err := core.Open(core.Config{})
	if err != nil {
		return err
	}
	defer eng.Close()
	schema, err := wiredb.ParseTableSpec([]byte(`{"name":"ticks","key":["id"],"columns":[{"name":"id","kind":"int","notnull":true},` +
		`{"name":"sym","kind":"string"},{"name":"venue","kind":"string"},{"name":"price","kind":"float"},{"name":"qty","kind":"int"}]}`))
	if err != nil {
		return err
	}
	if err := eng.DB.CreateTable(schema); err != nil {
		return err
	}
	for _, r := range h.rows {
		_, err := eng.DB.Insert("ticks", map[string]val.Value{"id": val.Int(r.id), "sym": val.String(r.sym),
			"venue": val.String(r.venue), "price": val.Float(r.price), "qty": val.Int(r.qty)})
		if err != nil {
			return err
		}
	}
	if _, err := eng.Compact("ticks"); err != nil {
		return err
	}
	var run, enc []float64
	n := min(replayQueries, len(h.queries))
	for i, hq := range h.queries[:n] {
		q, err := hq.spec.Build()
		if err != nil {
			return err
		}
		sp := tr.begin("query.run", int64(i), -1)
		t0 := time.Now()
		res, err := q.Run(eng.DB)
		run = append(run, float64(time.Since(t0).Nanoseconds())/1e3)
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.begin("wiredb.result_encode", int64(i), -1)
		t0 = time.Now()
		_, err = wiredb.MarshalResult(res)
		enc = append(enc, float64(time.Since(t0).Nanoseconds())/1e3)
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	cost["query.run"] = median(run)
	cost["wiredb.result_encode"] = median(enc)
	return nil
}

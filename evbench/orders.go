package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"eventdb/client"
)

// Orders sizing: the live set the preload creates and every op keeps,
// and the depth of the done-but-not-deleted FIFO inside it. An op is
// ordersStmtsPerOp consecutive statements of the generated stream (two
// rounds of insert, update and delete), and it completes when the
// consumer has acknowledged the captures of all of them, so no consumer
// backlog can grow unseen. Six statements make an op long enough that
// one pause inside it does not set its latency.
const (
	ordersLive           = 3000
	ordersDone           = 32
	ordersStmtsPerOp     = 6
	ordersStmtsPerSecond = 3000
	ordersQueue          = "ordq"
	// ordersWarmup ops run during set-up, after the preload.
	ordersWarmup = 100
)

var ordersSyms = func() []string {
	s := make([]string, 50)
	for i := range s {
		s[i] = fmt.Sprintf("SYM%03d", i)
	}
	return s
}()

// order is one row of the orders table.
type order struct {
	ID     int64   `json:"id"`
	Cust   string  `json:"cust"`
	Sym    string  `json:"sym"`
	Qty    int64   `json:"qty"`
	Price  float64 `json:"price"`
	Status string  `json:"status"`
}

func (o order) values() map[string]any {
	return map[string]any{"id": o.ID, "cust": o.Cust, "sym": o.Sym, "qty": o.Qty, "price": o.Price, "status": o.Status}
}

const (
	opInsert = iota
	opUpdate
	opDelete
)

var opNames = []string{"insert", "update", "delete"}

// orderOp is one generated DML statement.
type orderOp struct {
	kind int
	row  order // the inserted row, or the key (ID) for update/delete
}

type ordersInputs struct {
	seed    int64
	seconds int
	preload []order
	ops     []orderOp
	dig     string
}

type orders struct {
	*ordersInputs
	once sync.Once
}

func newOrders(seed int64, seconds int) *orders {
	return &orders{ordersInputs: &ordersInputs{seed: seed, seconds: seconds}}
}

func (o *orders) durable() bool { return true }

func (o *orders) digest() string { o.generate(); return o.dig }

func randomOrder(rng *rand.Rand, id int64, status string) order {
	return order{
		ID:     id,
		Cust:   fmt.Sprintf("C%03d", rng.Intn(400)),
		Sym:    ordersSyms[rng.Intn(len(ordersSyms))],
		Qty:    int64(1+rng.Intn(50)) * 10,
		Price:  float64(1000+rng.Intn(99000)) / 100,
		Status: status,
	}
}

// generate simulates the statement model: statement i%3 inserts a new
// open order, marks a random open order done, or deletes the oldest
// done order, so the live set keeps its size.
func (o *orders) generate() {
	o.once.Do(func() {
		rng := rand.New(rand.NewSource(o.seed))
		var open []int64
		var done []int64
		next := int64(1)
		for i := 0; i < ordersLive+ordersDone; i++ {
			status := "open"
			if i >= ordersLive {
				status = "done"
				done = append(done, next)
			} else {
				open = append(open, next)
			}
			o.preload = append(o.preload, randomOrder(rng, next, status))
			next++
		}
		n := o.seconds * ordersStmtsPerSecond
		for i := 0; i < n; i++ {
			switch i % 3 {
			case opInsert:
				o.ops = append(o.ops, orderOp{kind: opInsert, row: randomOrder(rng, next, "open")})
				open = append(open, next)
				next++
			case opUpdate:
				k := rng.Intn(len(open))
				id := open[k]
				open[k] = open[len(open)-1]
				open = open[:len(open)-1]
				done = append(done, id)
				o.ops = append(o.ops, orderOp{kind: opUpdate, row: order{ID: id}})
			case opDelete:
				id := done[0]
				done = done[1:]
				o.ops = append(o.ops, orderOp{kind: opDelete, row: order{ID: id}})
			}
		}
		h := newDigest()
		for _, r := range o.preload {
			data, _ := json.Marshal(r)
			h.Write(data)
		}
		for _, op := range o.ops {
			data, _ := json.Marshal(op.row)
			h.Write(append(data, byte(op.kind)))
		}
		o.dig = h.sum()
	})
}

// captureKey identifies one expected capture: its change kind and key.
type captureKey struct {
	op string
	id int64
}

type ordersSession struct {
	o        *orders
	dir      string
	prod     *client.Conn
	cons     *client.Conn
	ds       *client.DurableSub
	model    map[int64]order
	issued   atomic.Int64 // captures expected so far
	acked    atomic.Int64
	wake     chan struct{}
	consDone chan struct{}
	tr       atomic.Pointer[tracer]

	mu          sync.Mutex // guards the consumer's tallies
	seen        map[captureKey]int
	ackErrs     int
	redelivered int
	badCaptures int
	lags        []float64 // µs from capture to receipt, traced phase
	nextOp      int
}

func (o *orders) setup(d *daemon, tr *tracer) (session, error) {
	o.generate()
	s := &ordersSession{
		o: o, dir: d.dir, model: make(map[int64]order, ordersLive+ordersDone+1),
		wake: make(chan struct{}, 1), consDone: make(chan struct{}), seen: make(map[captureKey]int),
	}
	var err error
	if s.prod, err = client.Dial(d.addr); err != nil {
		return nil, err
	}
	if s.cons, err = client.Dial(d.addr); err != nil {
		s.prod.Close()
		return nil, err
	}
	fail := func(err error) (session, error) {
		s.close()
		return nil, err
	}
	err = s.prod.CreateTable(client.TableSpec{Name: "orders", Key: []string{"id"}, Columns: []client.ColumnSpec{
		{Name: "id", Kind: "int", NotNull: true}, {Name: "cust", Kind: "string"}, {Name: "sym", Kind: "string"},
		{Name: "qty", Kind: "int"}, {Name: "price", Kind: "float"}, {Name: "status", Kind: "string"},
	}})
	if err != nil {
		return fail(fmt.Errorf("TABLE: %w", err))
	}
	if err := s.prod.Trigger("ordcap", client.TriggerSpec{Table: "orders", Timing: "after"}); err != nil {
		return fail(fmt.Errorf("TRIG: %w", err))
	}
	s.ds, err = s.cons.DurableSubscribe(ordersQueue, "table = 'orders'", client.DurableOptions{Buffer: 4096})
	if err != nil {
		return fail(fmt.Errorf("QSUB: %w", err))
	}
	go s.consume()
	for _, r := range o.preload {
		if _, err := s.prod.Insert("orders", r.values()); err != nil {
			return fail(fmt.Errorf("preload: %w", err))
		}
		s.model[r.ID] = r
		s.issued.Add(1)
	}
	for i := 0; i < ordersWarmup; i++ {
		if err := s.op(-1, nil); err != nil {
			return fail(fmt.Errorf("warm-up: %w", err))
		}
	}
	if err := s.awaitAcked(s.issued.Load()); err != nil {
		return fail(fmt.Errorf("set-up captures: %w", err))
	}
	return s, nil
}

// consume acknowledges every capture once and tallies what arrived.
func (s *ordersSession) consume() {
	defer close(s.consDone)
	for d := range s.ds.C {
		recv := time.Now()
		tr := s.tr.Load()
		op, _ := d.Event.Attrs["op"].AsString()
		idv, ok := d.Event.Attrs["new_id"]
		if !ok {
			idv = d.Event.Attrs["old_id"]
		}
		id, _ := idv.AsInt()
		req := int64(-1)
		if r, ok := d.Event.Attrs["rowid"].AsInt(); ok {
			req = r
		}
		span := tr.begin("queue.ack", req, -1)
		err := d.Ack()
		tr.end(span)
		s.mu.Lock()
		s.seen[captureKey{op, id}]++
		if d.Attempt > 1 {
			s.redelivered++
		}
		if d.Event.Type != "db.orders."+op {
			s.badCaptures++
		}
		if err != nil {
			s.ackErrs++
		}
		if tr != nil {
			s.lags = append(s.lags, float64(recv.Sub(d.Event.Time).Nanoseconds())/1e3)
		}
		s.mu.Unlock()
		if err == nil {
			s.acked.Add(1)
		}
		select {
		case s.wake <- struct{}{}:
		default:
		}
	}
}

// awaitAcked waits until at least want captures are acknowledged.
func (s *ordersSession) awaitAcked(want int64) error {
	deadline := time.NewTimer(deliveryWait)
	defer deadline.Stop()
	for s.acked.Load() < want {
		select {
		case <-s.wake:
		case <-deadline.C:
			return fmt.Errorf("captures acknowledged: have %d, want %d", s.acked.Load(), want)
		}
	}
	return nil
}

func (s *ordersSession) op(i int64, tr *tracer) error {
	if s.nextOp+ordersStmtsPerOp > len(s.o.ops) {
		return errPoolExhausted
	}
	if tr != nil && s.tr.Load() == nil {
		s.tr.Store(tr) // the consumer traces from the traced phase on
	}
	root := tr.begin("op", i, -1)
	for k := 0; k < ordersStmtsPerOp; k++ {
		if err := s.statement(i, root, tr); err != nil {
			tr.end(root)
			return err
		}
	}
	wait := tr.begin("client.await_captures", i, root)
	err := s.awaitAcked(s.issued.Load())
	tr.end(wait)
	tr.end(root)
	return err
}

// statement sends the next generated statement and applies it to the
// model.
func (s *ordersSession) statement(i int64, root int, tr *tracer) error {
	op := s.o.ops[s.nextOp]
	s.nextOp++
	s.issued.Add(1)
	call := tr.begin("client.call", i, root)
	var n int
	var err error
	key := "id = " + strconv.FormatInt(op.row.ID, 10)
	switch op.kind {
	case opInsert:
		_, err = s.prod.Insert("orders", op.row.values())
		n = 1
		s.model[op.row.ID] = op.row
	case opUpdate:
		n, err = s.prod.Update("orders", key, map[string]any{"status": "done"})
		r := s.model[op.row.ID]
		r.Status = "done"
		s.model[op.row.ID] = r
	case opDelete:
		n, err = s.prod.Delete("orders", key)
		delete(s.model, op.row.ID)
	}
	tr.end(call)
	if tr != nil {
		tr.add("orders."+opNames[op.kind], 1)
	}
	if err != nil {
		return fmt.Errorf("%s %d: %w", opNames[op.kind], op.row.ID, err)
	}
	if n != 1 {
		return fmt.Errorf("%s %d changed %d rows", opNames[op.kind], op.row.ID, n)
	}
	return nil
}

// finish waits for every capture, then compares the table with the
// model and the captures with the ops sent.
func (s *ordersSession) finish() (int, error) {
	if err := s.awaitAcked(s.issued.Load()); err != nil {
		return 0, err
	}
	res, err := s.prod.Select(client.QuerySpec{Table: "orders", Select: []string{"id", "cust", "sym", "qty", "price", "status"}})
	if err != nil {
		return 0, err
	}
	wrong := 0
	if len(res.Rows) != len(s.model) {
		fmt.Printf("orders check: table has %d rows, model %d\n", len(res.Rows), len(s.model))
		wrong++
	}
	for _, row := range res.Rows {
		id, _ := row[0].(int64)
		m, ok := s.model[id]
		price, _ := toFloat(row[4])
		qty, _ := row[3].(int64)
		if !ok || row[1] != m.Cust || row[2] != m.Sym || qty != m.Qty || price != m.Price || row[5] != m.Status {
			if wrong < 3 {
				fmt.Printf("orders check: row %v, model %+v\n", row, m)
			}
			wrong++
		}
	}
	want := make(map[captureKey]int)
	for _, r := range s.o.preload {
		want[captureKey{"insert", r.ID}]++
	}
	for _, op := range s.o.ops[:s.nextOp] {
		want[captureKey{opNames[op.kind], op.row.ID}]++
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	capWrong := s.ackErrs + s.badCaptures
	for k, n := range want {
		if s.seen[k] != n {
			capWrong++
		}
	}
	for k := range s.seen {
		if want[k] == 0 {
			capWrong++
		}
	}
	fmt.Printf("orders check: statements=%d rows=%d captures=%d acked=%d redelivered=%d capture_mismatches=%d\n",
		s.nextOp, len(res.Rows), len(want), s.acked.Load(), s.redelivered, capWrong)
	return wrong + capWrong, nil
}

func toFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case int64:
		return float64(x), true
	}
	return 0, false
}

func (s *ordersSession) counters() map[string]float64 {
	m := wireCounters(s.cons)
	if data, err := s.cons.QueueStatsJSON(ordersQueue); err == nil {
		var st struct {
			Dead float64 `json:"dead"`
		}
		if json.Unmarshal(data, &st) == nil {
			m["queue.dead"] = st.Dead
		}
	}
	s.mu.Lock()
	m["queue.redelivered"] = float64(s.redelivered)
	m["trigger.events_per_op"] = float64(s.acked.Load())
	s.mu.Unlock()
	total, segs := dirBytes(s.dir, "segments")
	m["wal.bytes_per_op"] = float64(total - segs)
	return m
}

// captureLags returns the capture-to-receipt times seen while traced.
func (s *ordersSession) captureLags() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := append([]float64(nil), s.lags...)
	sort.Float64s(out)
	return out
}

func (s *ordersSession) close() {
	if s.prod != nil {
		s.prod.Close()
	}
	if s.cons != nil {
		s.cons.Close() // closes the delivery channel
		if s.ds != nil {
			<-s.consDone
		}
	}
}

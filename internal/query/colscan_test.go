package query

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"eventdb/internal/columnar"
	"eventdb/internal/expr"
	"eventdb/internal/storage"
	"eventdb/internal/val"
)

// The differential tests pin the columnar scan to the row scan: every
// query in the corpus runs once through each path and the results must
// be identical, column for column and row for row. The fixture mixes
// sealed segments, a row-store tail, and sealed rows that were later
// updated or deleted, so the merge logic is always in play.

var colSyms = []string{"ACME", "BETA", "GAMA", "DELT", "EPSI"}

func colEvent(rng *rand.Rand, i int) map[string]val.Value {
	m := map[string]val.Value{
		"id": val.Int(int64(i)),
		"ts": val.Time(time.Unix(1700000000+int64(i), 0).UTC()),
	}
	if rng.Intn(8) != 0 {
		m["sym"] = val.String(colSyms[rng.Intn(len(colSyms))])
	}
	if rng.Intn(8) != 0 {
		// Quarters are exactly representable, so float sums are the
		// same in any accumulation order and both scan paths agree to
		// the last bit.
		m["price"] = val.Float(float64(rng.Intn(10000)) / 4)
	}
	if rng.Intn(8) != 0 {
		m["qty"] = val.Int(int64(rng.Intn(1000) - 500))
	}
	if rng.Intn(8) != 0 {
		m["flag"] = val.Bool(rng.Intn(2) == 0)
	}
	if rng.Intn(8) != 0 {
		// Event-shaped payloads, so sealed segments store this column
		// packed and every read of it goes through inflation.
		m["payload"] = val.Bytes(fmt.Appendf(nil, `{"type":"db.events.insert","id":%d,"note":"staged"}`, i))
	}
	return m
}

// colDB builds an events table whose history is split across sealed
// segments (with some rows updated or deleted after sealing) and a
// fresh row-store tail.
func colDB(t *testing.T, sealed, tail int) *storage.DB {
	t.Helper()
	db, err := storage.Open(storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	schema, err := storage.NewSchema("events", []storage.Column{
		{Name: "id", Kind: val.KindInt, NotNull: true},
		{Name: "ts", Kind: val.KindTime},
		{Name: "sym", Kind: val.KindString},
		{Name: "price", Kind: val.KindFloat},
		{Name: "qty", Kind: val.KindInt},
		{Name: "flag", Kind: val.KindBool},
		{Name: "payload", Kind: val.KindBytes},
	}, "id")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(schema); err != nil {
		t.Fatal(err)
	}
	m, err := columnar.Attach(db, columnar.Config{SealRows: 64, SealInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)

	rng := rand.New(rand.NewSource(7))
	ids := make([]storage.RowID, 0, sealed)
	for i := 0; i < sealed; i++ {
		id, err := db.Insert("events", colEvent(rng, i))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if _, err := m.Compact(""); err != nil {
		t.Fatal(err)
	}
	// Mutate a slice of the sealed range so the snapshot's dead and
	// modified sets are non-empty: those rows must come from the row
	// store (or vanish), not the segment.
	for i := 0; i < sealed/10; i++ {
		if err := db.UpdateRow("events", ids[rng.Intn(len(ids))], map[string]val.Value{
			"price": val.Float(999.5), "sym": val.String("MODX"),
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < sealed/20; i++ {
		// A repeated id is a no-op delete; the error is irrelevant here.
		_ = db.DeleteRow("events", ids[rng.Intn(len(ids))])
	}
	for i := 0; i < tail; i++ {
		if _, err := db.Insert("events", colEvent(rng, sealed+i)); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// resultEqual compares two results exactly: same columns, same rows,
// same values (kind and rendering). Rows are compared under a
// canonical sort because unordered scans surface rows in map-iteration
// order, which is not part of the query contract; ordered queries in
// the corpus sort on a unique key so the row SET already pins them.
func resultEqual(t *testing.T, label string, got, want *Result) {
	t.Helper()
	canonSort(got)
	canonSort(want)
	if len(got.Columns) != len(want.Columns) {
		t.Fatalf("%s: columns %v vs %v", label, got.Columns, want.Columns)
	}
	for i := range got.Columns {
		if got.Columns[i] != want.Columns[i] {
			t.Fatalf("%s: columns %v vs %v", label, got.Columns, want.Columns)
		}
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: %d rows vs %d rows", label, len(got.Rows), len(want.Rows))
	}
	for i := range got.Rows {
		for j := range got.Rows[i] {
			g, w := got.Rows[i][j], want.Rows[i][j]
			if g.Kind() != w.Kind() || g.String() != w.String() {
				t.Fatalf("%s: row %d col %s: %s(%v) vs %s(%v)",
					label, i, got.Columns[j], g.String(), g.Kind(), w.String(), w.Kind())
			}
		}
	}
}

// canonSort orders rows lexicographically by each cell's kind and
// rendering, making results from map-ordered scans comparable.
func canonSort(r *Result) {
	sort.Slice(r.Rows, func(i, j int) bool {
		a, b := r.Rows[i], r.Rows[j]
		for k := range a {
			if ak, bk := int(a[k].Kind()), int(b[k].Kind()); ak != bk {
				return ak < bk
			}
			if as, bs := a[k].String(), b[k].String(); as != bs {
				return as < bs
			}
		}
		return false
	})
}

// colQueries is the differential corpus. It spans vectorizable
// predicates, predicates that force the row fallback inside the
// columnar path (LIKE, arithmetic), projections, grouping, all five
// aggregates, ordering and paging.
func colQueries() map[string]func() *Query {
	return map[string]func() *Query{
		"select-all":     func() *Query { return New("events") },
		"where-eq":       func() *Query { return New("events").Where("sym = 'ACME'") },
		"where-range":    func() *Query { return New("events").Where("price > 25 AND price <= 75") },
		"where-or":       func() *Query { return New("events").Where("sym = 'BETA' OR qty < -100") },
		"where-not":      func() *Query { return New("events").Where("NOT (flag = true)") },
		"where-between":  func() *Query { return New("events").Where("qty BETWEEN -50 AND 200") },
		"where-in":       func() *Query { return New("events").Where("sym IN ('ACME', 'GAMA', 'NOPE')") },
		"where-null":     func() *Query { return New("events").Where("price IS NULL") },
		"where-notnull":  func() *Query { return New("events").Where("sym IS NOT NULL AND flag = false") },
		"where-time":     func() *Query { return New("events").Where("ts >= 1700000100") },
		"where-modified": func() *Query { return New("events").Where("sym = 'MODX'") },
		"where-none":     func() *Query { return New("events").Where("sym = 'ZZZZ'") },
		"where-like":     func() *Query { return New("events").Where("sym LIKE 'A%'") },
		"where-arith":    func() *Query { return New("events").Where("price * 2 > 100") },
		"project":        func() *Query { return New("events").Select("id", "sym", "price") },
		"project-where":  func() *Query { return New("events").Select("id", "qty").Where("qty > 0") },
		"project-bytes":  func() *Query { return New("events").Select("id", "payload").Where("payload IS NOT NULL") },
		"order-limit":    func() *Query { return New("events").OrderBy("id", Desc).Limit(17).Offset(3) },
		"count-star":     func() *Query { return New("events").Agg("n", Count, "") },
		"count-col":      func() *Query { return New("events").Agg("n", Count, "price") },
		"sum-avg":        func() *Query { return New("events").Agg("s", Sum, "qty").Agg("a", Avg, "price") },
		"min-max":        func() *Query { return New("events").Agg("lo", Min, "price").Agg("hi", Max, "price") },
		"min-max-str":    func() *Query { return New("events").Agg("lo", Min, "sym").Agg("hi", Max, "sym") },
		"min-max-time":   func() *Query { return New("events").Agg("lo", Min, "ts").Agg("hi", Max, "ts") },
		"agg-where":      func() *Query { return New("events").Where("sym = 'ACME'").Agg("n", Count, "").Agg("s", Sum, "qty") },
		"agg-empty": func() *Query {
			return New("events").Where("sym = 'ZZZZ'").Agg("n", Count, "").Agg("s", Sum, "qty").Agg("lo", Min, "price")
		},
		"group-agg": func() *Query {
			return New("events").GroupBy("sym").Agg("n", Count, "").Agg("hi", Max, "price").OrderBy("sym", Asc)
		},
		"group-agg-where": func() *Query {
			return New("events").Where("qty >= -250").GroupBy("flag").Agg("n", Count, "").OrderBy("n", Desc)
		},
	}
}

func TestColumnarDifferential(t *testing.T) {
	db := colDB(t, 900, 60)
	for name, mk := range colQueries() {
		col, colErr := mk().Run(db)
		row, rowErr := mk().NoColumnar().Run(db)
		if (colErr == nil) != (rowErr == nil) {
			t.Fatalf("%s: columnar err %v vs row err %v", name, colErr, rowErr)
		}
		if colErr != nil {
			if colErr.Error() != rowErr.Error() {
				t.Fatalf("%s: error text %q vs %q", name, colErr, rowErr)
			}
			continue
		}
		resultEqual(t, name, col, row)
	}
}

// TestColumnarAggErrors pins that type errors surface identically on
// both paths: same failure, same message.
func TestColumnarAggErrors(t *testing.T) {
	db := colDB(t, 200, 10)
	for _, mk := range []func() *Query{
		func() *Query { return New("events").Agg("s", Sum, "sym") },
		func() *Query { return New("events").Agg("a", Avg, "flag") },
	} {
		_, colErr := mk().Run(db)
		_, rowErr := mk().NoColumnar().Run(db)
		if colErr == nil || rowErr == nil {
			t.Fatalf("expected errors, got columnar=%v row=%v", colErr, rowErr)
		}
		if colErr.Error() != rowErr.Error() {
			t.Fatalf("error text %q vs %q", colErr, rowErr)
		}
	}
}

// TestColumnarPlan asserts the planner's routing: sealed history is
// served from segments, zone maps prune, and joins or NoColumnar fall
// back to the row scan.
func TestColumnarPlan(t *testing.T) {
	db := colDB(t, 900, 60)

	_, plan, err := New("events").Where("price > 10").Explain(db)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Access != "columnar" || plan.Segments == 0 {
		t.Fatalf("plan = %+v, want columnar access over >0 segments", plan)
	}

	// "sym = 'ZZZZ'" sorts above every stored symbol, so the string
	// zone maps prune each segment without decoding it.
	_, plan, err = New("events").Where("sym = 'ZZZZ'").Explain(db)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Access != "columnar" || plan.SegmentsPruned != plan.Segments {
		t.Fatalf("plan = %+v, want all %d segments pruned", plan, plan.Segments)
	}

	_, plan, err = New("events").NoColumnar().Explain(db)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Access != "scan" {
		t.Fatalf("NoColumnar plan access = %q, want scan", plan.Access)
	}
}

// TestColumnarSealMidTransaction seals while one large transaction's
// rows dominate the pending batch; a seal must never split a commit,
// and query results must stay identical across the seal.
func TestColumnarSealMidTransaction(t *testing.T) {
	db, err := storage.Open(storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	schema, err := storage.NewSchema("events", []storage.Column{
		{Name: "id", Kind: val.KindInt, NotNull: true},
		{Name: "sym", Kind: val.KindString},
		{Name: "qty", Kind: val.KindInt},
	}, "id")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(schema); err != nil {
		t.Fatal(err)
	}
	m, err := columnar.Attach(db, columnar.Config{SealRows: 64, SealInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	txn := db.Begin()
	for i := 0; i < 150; i++ {
		if err := txn.Insert("events", map[string]val.Value{
			"id": val.Int(int64(i)), "sym": val.String(colSyms[i%len(colSyms)]), "qty": val.Int(int64(i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("events", map[string]val.Value{
		"id": val.Int(1000), "sym": val.String("TAIL"), "qty": val.Int(1),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Compact(""); err != nil {
		t.Fatal(err)
	}

	mkQ := func() *Query { return New("events").Where("qty >= 0").OrderBy("id", Asc) }
	col, err := mkQ().Run(db)
	if err != nil {
		t.Fatal(err)
	}
	row, err := mkQ().NoColumnar().Run(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(col.Rows) != 151 {
		t.Fatalf("columnar rows = %d, want 151", len(col.Rows))
	}
	resultEqual(t, "seal-mid-txn", col, row)
}

// TestPlanGuardKeyedAccess pins the shared access path on a keyed
// table with sealed history: primary-key equality (whatever its
// residual conjuncts or their order) is a point lookup, while a range
// over the key, an OR, and a non-key equality stay scans that the
// columnar store serves, as history queries rely on. Every plan
// returns what a row scan returns (NOT NOT hides the conjuncts from
// the planner without changing the predicate's value).
func TestPlanGuardKeyedAccess(t *testing.T) {
	db := colDB(t, 900, 60)
	for _, tc := range []struct{ where, access string }{
		{"id >= 100 AND id < 200", "columnar"},
		{"id BETWEEN 100 AND 199", "columnar"},
		{"id = 5 OR qty > 3", "columnar"},
		{"sym = 'ACME'", "columnar"},
		{"id = 5", "pk-eq"},
		{"id = 5.0", "pk-eq"},
		{"id = 5.5", "pk-eq"},
		{"qty > 3 AND id = 7", "pk-eq"},
		{"id = 950", "pk-eq"},
	} {
		got, plan, err := New("events").Where(tc.where).Explain(db)
		if err != nil {
			t.Fatalf("%s: %v", tc.where, err)
		}
		if plan.Access != tc.access {
			t.Errorf("%s: plan %q, want %q", tc.where, plan.Access, tc.access)
		}
		want, err := New("events").Where("NOT (NOT (" + tc.where + "))").NoColumnar().Run(db)
		if err != nil {
			t.Fatal(err)
		}
		resultEqual(t, tc.where, got, want)
	}
	tbl, _ := db.Table("events")
	if _, plan := Access(tbl, expr.MustCompile("id >= 100 AND id < 200")); plan.Access != "scan" {
		t.Errorf("Access on a key range = %q, want scan", plan.Access)
	}
}

package wiredb

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"eventdb/internal/expr"
	"eventdb/internal/query"
	"eventdb/internal/storage"
)

const ordersSpec = `{"name":"orders","key":["id"],"columns":[
	{"name":"id","kind":"int","notnull":true},
	{"name":"qty","kind":"int"},
	{"name":"status","kind":"string"},
	{"name":"price","kind":"float"}]}`

// ordersDB opens a volatile database holding an orders table with ids
// 1..n; qty, status and price vary with the seed, nulls included.
func ordersDB(t testing.TB, n int, seed int64) *storage.DB {
	t.Helper()
	db, err := storage.Open(storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	schema, err := ParseTableSpec([]byte(ordersSpec))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(schema); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	txn := db.Begin()
	for id := 1; id <= n; id++ {
		row := map[string]any{"id": float64(id), "status": []string{"open", "done", "x"}[rng.Intn(3)]}
		if rng.Intn(6) != 0 {
			row["qty"] = float64(rng.Intn(8))
		}
		if rng.Intn(6) != 0 {
			row["price"] = float64(rng.Intn(40)) / 4
		}
		vals, err := Values(schema, row)
		if err != nil {
			t.Fatal(err)
		}
		if err := txn.Insert("orders", vals); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	return db
}

// tableState renders every row, sorted, for whole-table comparison.
func tableState(t *testing.T, db *storage.DB) []string {
	t.Helper()
	tbl, _ := db.Table("orders")
	_, rows := tbl.ScanRows()
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	sort.Strings(out)
	return out
}

// bruteMatch evaluates the predicate against every row, the way a full
// scan does: the reference the shared access path must reproduce.
func bruteMatch(t *testing.T, db *storage.DB, where string) (ids map[storage.RowID]bool, err error) {
	t.Helper()
	pred := expr.MustCompile("true")
	if where != "" {
		if pred, err = expr.Compile(where); err != nil {
			return nil, err
		}
	}
	tbl, _ := db.Table("orders")
	rowIDs, rows := tbl.ScanRows()
	ids = map[storage.RowID]bool{}
	for i, r := range rows {
		ok, err := pred.Match(storage.RowResolver{Schema: tbl.Schema(), Row: r})
		if err != nil {
			return nil, err
		}
		if ok {
			ids[rowIDs[i]] = true
		}
	}
	return ids, nil
}

// randWhere builds a random where clause. Primary-key equality shows
// up often, alone, under AND (as first or later conjunct), under OR,
// and with non-int literals. A conjunct whose evaluation fails (an
// ordering between string and int) is only ever appended last, where
// the key conjunct short-circuits it on non-candidate rows, exactly as
// a scan evaluates it.
func randWhere(rng *rand.Rand) string {
	keyLit := func() string {
		switch rng.Intn(8) {
		case 0:
			return fmt.Sprintf("%d.0", rng.Intn(45))
		case 1:
			return fmt.Sprintf("%d.5", rng.Intn(45))
		case 2:
			return fmt.Sprintf("'%d'", rng.Intn(45))
		case 3:
			return "NULL"
		default:
			return fmt.Sprint(rng.Intn(45))
		}
	}
	var atom func(depth int) string
	atom = func(depth int) string {
		switch n := rng.Intn(9); {
		case n < 3:
			if rng.Intn(4) == 0 {
				return keyLit() + " = id"
			}
			return "id = " + keyLit()
		case n == 3:
			return fmt.Sprintf("qty > %d", rng.Intn(8))
		case n == 4:
			return fmt.Sprintf("status = '%s'", []string{"open", "done", "x", "y"}[rng.Intn(4)])
		case n == 5:
			return fmt.Sprintf("price < %d", rng.Intn(10))
		case n == 6:
			return fmt.Sprintf("id >= %d", rng.Intn(45))
		case depth < 2 && n == 7:
			return "(" + atom(depth+1) + " OR " + atom(depth+1) + ")"
		case depth < 2:
			return "NOT (" + atom(depth+1) + ")"
		default:
			return "qty IS NULL"
		}
	}
	parts := make([]string, 1+rng.Intn(3))
	for i := range parts {
		parts[i] = atom(0)
	}
	if rng.Intn(6) == 0 {
		parts = append(parts, "status > 3")
	}
	return strings.Join(parts, " AND ")
}

// TestDMLDifferential runs seeded random where clauses, plus the named
// edge cases, through SELECT, UPDATE and DELETE on an int-keyed table,
// and checks rows, counts, final table state and errors against a
// brute-force scan of the same table.
func TestDMLDifferential(t *testing.T) {
	wheres := []string{
		"id = 5", "id = 5.0", "id = 5.5", "id = '5'", "id = NULL", "id = NULL AND status > 3", "5 = id",
		"id = 5 OR qty > 3", "id = 5 AND id = 6", "id = 5 AND status = 'x'",
		"id = 5 AND status = 'open'", "status = 'open' AND id = 5", "id = 99",
		"id = 5 AND status > 3", "id >= 10 AND id < 20", "", "((",
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 400; i++ {
		wheres = append(wheres, randWhere(rng))
	}
	sameErr := func(w, op string, got, want error) bool {
		t.Helper()
		if (got == nil) != (want == nil) || (got != nil && !strings.Contains(got.Error(), want.Error())) {
			t.Fatalf("%q %s: error %v, scan error %v", w, op, got, want)
		}
		return got != nil
	}
	for i, w := range wheres {
		seed := int64(i)
		db := ordersDB(t, 40, seed)
		want, wantErr := bruteMatch(t, db, w)

		q := query.New("orders").Where(w)
		res, err := q.Run(db)
		if !sameErr(w, "SELECT", err, wantErr) {
			got := map[storage.RowID]bool{}
			for r := range res.Rows {
				id, _ := res.Get(r, "id")
				n, _ := id.AsInt()
				got[storage.RowID(n)] = true
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%q SELECT ids %v, scan %v", w, got, want)
			}
		}

		// reference applies the scan's matches to a fresh copy.
		reference := func(apply func(txn *storage.Txn, id storage.RowID)) []string {
			ref := ordersDB(t, 40, seed)
			if wantErr == nil && len(want) > 0 {
				txn := ref.Begin()
				for id := range want {
					apply(txn, id)
				}
				if _, err := txn.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			return tableState(t, ref)
		}

		set := map[string]any{"status": "upd", "qty": 100}
		n, err := UpdateWhere(db, "orders", w, set)
		if !sameErr(w, "UPDATE", err, wantErr) && n != len(want) {
			t.Fatalf("%q UPDATE count %d, scan %d", w, n, len(want))
		}
		tbl, _ := db.Table("orders")
		vals, _ := Values(tbl.Schema(), set)
		if fmt.Sprint(tableState(t, db)) != fmt.Sprint(reference(func(txn *storage.Txn, id storage.RowID) { txn.Update("orders", id, vals) })) {
			t.Fatalf("%q UPDATE final state differs from scan", w)
		}

		db = ordersDB(t, 40, seed)
		n, err = DeleteWhere(db, "orders", w)
		if !sameErr(w, "DELETE", err, wantErr) && n != len(want) {
			t.Fatalf("%q DELETE count %d, scan %d", w, n, len(want))
		}
		if fmt.Sprint(tableState(t, db)) != fmt.Sprint(reference(func(txn *storage.Txn, id storage.RowID) { txn.Delete("orders", id) })) {
			t.Fatalf("%q DELETE final state differs from scan", w)
		}
	}
}

// TestDMLRace runs the two match/commit races from two goroutines many
// times: both delete the same keyed row, then both run UPDATE ... where
// status = 'open'. Neither statement may fail, a row that stops
// matching before commit must not be touched, and the counts must sum
// to the rows actually changed.
func TestDMLRace(t *testing.T) {
	race := func(stmt func() (int, error)) (sum int) {
		t.Helper()
		start := make(chan struct{})
		var wg sync.WaitGroup
		counts, errs := make([]int, 2), make([]error, 2)
		for g := range counts {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				counts[g], errs[g] = stmt()
			}(g)
		}
		close(start)
		wg.Wait()
		for g := range counts {
			if errs[g] != nil {
				t.Fatalf("goroutine %d: %v", g, errs[g])
			}
			sum += counts[g]
		}
		return sum
	}
	for round := 0; round < 200; round++ {
		db := ordersDB(t, 30, int64(round))
		var mu sync.Mutex
		changed := 0
		db.OnCommit(func(ci *storage.CommitInfo) {
			mu.Lock()
			changed += len(ci.Changes)
			mu.Unlock()
		})

		if n := race(func() (int, error) { return DeleteWhere(db, "orders", "id = 5") }); n != 1 || changed != 1 {
			t.Fatalf("round %d: concurrent keyed deletes counted %d, changed %d rows; want 1", round, n, changed)
		}
		open, _ := bruteMatch(t, db, "status = 'open'")
		n := race(func() (int, error) {
			return UpdateWhere(db, "orders", "status = 'open'", map[string]any{"status": "done"})
		})
		if n != len(open) || changed != 1+len(open) {
			t.Fatalf("round %d: concurrent updates counted %d, changed %d rows; want %d", round, n, changed-1, len(open))
		}
		if left, _ := bruteMatch(t, db, "status = 'open'"); len(left) != 0 {
			t.Fatalf("round %d: %d rows still open", round, len(left))
		}
	}
}

// TestPlanGuardKeyedDML is the deterministic work guard for keyed DML:
// UPDATE/DELETE by primary key evaluate the where on exactly one row
// whatever the table size, while an unkeyed where still scans.
func TestPlanGuardKeyedDML(t *testing.T) {
	for _, size := range []int{3000, 30000} {
		db := ordersDB(t, size, 1)
		key := fmt.Sprintf("id = %d", size/2)
		n, tg, err := execWhere(db, "orders", key, map[string]any{"status": "done"}, false)
		if err != nil || n != 1 || tg.evals != 1 || tg.plan.Access != "pk-eq" {
			t.Fatalf("%d rows: keyed UPDATE changed %d, evaluated %d rows via %q (err %v); want 1, 1, pk-eq",
				size, n, tg.evals, tg.plan.Access, err)
		}
		n, tg, err = execWhere(db, "orders", key, nil, true)
		if err != nil || n != 1 || tg.evals != 1 || tg.plan.Access != "pk-eq" {
			t.Fatalf("%d rows: keyed DELETE changed %d, evaluated %d rows via %q (err %v); want 1, 1, pk-eq",
				size, n, tg.evals, tg.plan.Access, err)
		}
		_, tg, err = execWhere(db, "orders", "qty = 999", map[string]any{"status": "done"}, false)
		if err != nil || tg.plan.Access != "scan" || tg.evals != size-1 {
			t.Fatalf("%d rows: unkeyed UPDATE evaluated %d rows via %q (err %v); want %d via scan",
				size, tg.evals, tg.plan.Access, err, size-1)
		}
	}
	db := ordersDB(t, 40, 1)
	for where, access := range map[string]string{
		"id = 5":                  "pk-eq",
		"id = 5.0":                "pk-eq",
		"id = 5.5":                "pk-eq",
		"id = '5'":                "pk-eq",
		"id = 5 AND status = 'x'": "pk-eq",
		"status = 'x' AND id = 5": "pk-eq",
		"id = 5 OR qty > 3":       "scan",
		"id >= 10 AND id < 20":    "scan",
		"id BETWEEN 10 AND 20":    "scan",
		"NOT (id = 5)":            "scan",
		"status = 'open'":         "scan",
	} {
		_, tg, err := execWhere(db, "orders", where+" AND qty = 999", nil, true)
		if err != nil || tg.plan.Access != access {
			t.Errorf("%s: plan %q (err %v), want %q", where, tg.plan.Access, err, access)
		}
	}
}

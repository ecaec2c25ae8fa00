package columnar

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"testing"

	"eventdb/internal/storage"
	"eventdb/internal/val"
	"eventdb/internal/wal"
)

// blobCol is the events schema's bytes column.
const blobCol = 6

func packedCol(seg *Segment) *bytesColumn { return seg.cols[blobCol].(*bytesColumn) }

// TestPackedBytesColumn pins the packing rule and the decode: an
// event-shaped bytes column seals deflated, a random one (which does
// not deflate to half) stays raw, and both decode byte-identical to
// the values sealed, nulls and empty blobs included. The reported
// footprint is the packed one.
func TestPackedBytesColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct {
		name   string
		gen    func(i int) []byte
		packed bool
	}{
		{"event-shaped", func(i int) []byte { return eventPayload(rng, i) }, true},
		{"random", func(int) []byte {
			b := make([]byte, 40)
			rng.Read(b)
			return b
		}, false},
	} {
		n := 3000
		rows := make([]storage.Row, n)
		raw := 0
		for i := range rows {
			switch {
			case i%11 == 0:
				rows[i] = storage.Row{val.Null}
			case i%13 == 0:
				rows[i] = storage.Row{val.Bytes([]byte{})}
			default:
				b := tc.gen(i)
				raw += len(b)
				rows[i] = storage.Row{val.Bytes(b)}
			}
		}
		col, err := buildColumn(val.KindBytes, rows, 0)
		if err != nil {
			t.Fatal(err)
		}
		c := col.(*bytesColumn)
		if got := c.packed != nil; got != tc.packed {
			t.Fatalf("%s: packed = %v, want %v", tc.name, got, tc.packed)
		}
		if tc.packed && c.memBytes() >= len(c.offs)*4+raw/2 {
			t.Fatalf("%s: memBytes %d does not reflect packing (raw blob %d)", tc.name, c.memBytes(), raw)
		}
		cur := c.newCursor()
		v := Vector{Kind: val.KindBytes, Bytes: make([][]byte, BatchSize), Null: make([]bool, BatchSize)}
		for start := 0; start < n; start += BatchSize {
			m := min(BatchSize, n-start)
			cur.next(&v, m)
			for i := 0; i < m; i++ {
				want := rows[start+i][0]
				if v.Null[i] != want.IsNull() {
					t.Fatalf("%s row %d: null = %v", tc.name, start+i, v.Null[i])
				}
				wb, _ := want.AsBytes()
				if !want.IsNull() && !bytes.Equal(v.Bytes[i], wb) {
					t.Fatalf("%s row %d: %q, want %q", tc.name, start+i, v.Bytes[i], wb)
				}
			}
		}
	}
}

// TestPackedHistoryMatchesWAL checks packed sealed history against the
// WAL: REPLAY's insert mining over packed segments yields exactly the
// rows the WAL recorded, before and after a restart reloads (and
// repacks) the segment files, and the table's memory figure counts the
// packed size.
func TestPackedHistoryMatchesWAL(t *testing.T) {
	dir := t.TempDir()
	segDir := filepath.Join(dir, "segments")
	db, err := storage.Open(storage.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(eventsSchema(t)); err != nil {
		t.Fatal(err)
	}
	fillEvents(t, db, 600, 17)
	tbl, _ := db.Table("events")
	ids, _ := tbl.ScanRows()
	// Superseded inserts stay in history.
	db.UpdateRow("events", ids[3], map[string]val.Value{"blob": val.Bytes([]byte("changed"))})
	db.DeleteRow("events", ids[4])

	walRows := func(db *storage.DB) map[storage.RowID]storage.Row {
		out := map[storage.RowID]storage.Row{}
		err := db.WAL().Replay(0, func(r wal.Record) error {
			changes, ok, err := storage.DecodeCommitRecord(r)
			if err != nil || !ok {
				return err
			}
			for _, c := range changes {
				if c.Table == "events" && c.Kind == storage.Insert {
					out[c.ID] = c.New
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	check := func(label string, m *Manager, want map[storage.RowID]storage.Row) {
		t.Helper()
		st := m.Table("events")
		snap := st.Snapshot()
		if snap == nil || snap.SealedRows() != 600 {
			t.Fatalf("%s: sealed snapshot %+v", label, snap)
		}
		raw := 0
		for _, sv := range snap.Segs {
			c := packedCol(sv.Seg)
			if c.packed == nil {
				t.Fatalf("%s: event-shaped payload segment not packed", label)
			}
			raw += int(c.offs[len(c.offs)-1])
		}
		if mem := st.Stats().MemBytes; mem >= raw {
			t.Fatalf("%s: stats bytes %d, want below the raw payload bytes %d", label, mem, raw)
		}
		mined := 0
		if _, err := m.MineInserts("events", 0, func(lsn uint64, c *storage.Change) error {
			mined++
			w, ok := want[c.ID]
			if !ok {
				t.Fatalf("%s: mined row %d not in WAL", label, c.ID)
			}
			for ci := range w {
				if w[ci].Kind() != c.New[ci].Kind() || !rowsEqual(storage.Row{w[ci]}, storage.Row{c.New[ci]}) {
					t.Fatalf("%s: row %d col %d: mined %v, WAL %v", label, c.ID, ci, c.New[ci], w[ci])
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if mined != len(want) {
			t.Fatalf("%s: mined %d inserts, WAL has %d", label, mined, len(want))
		}
	}

	m, err := Attach(db, Config{SealRows: 64, Dir: segDir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Compact("events"); err != nil {
		t.Fatal(err)
	}
	want := walRows(db)
	check("sealed", m, want)
	m.Close()
	db.Close()

	db, err = storage.Open(storage.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	m, err = Attach(db, Config{SealRows: 64, Dir: segDir})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.Err() != nil {
		t.Fatalf("reload: %v", m.Err())
	}
	check("reloaded", m, want)
}

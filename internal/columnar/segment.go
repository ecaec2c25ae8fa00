// Package columnar implements the engine's columnar event-history
// store: immutable sealed segments holding table history as typed
// column vectors — dictionary-encoded strings, delta-encoded
// int64/timestamps, validity bitmaps — with per-segment zone maps
// (min/max/null-count per column) for scan pruning.
//
// Hot recent data stays in the row store; a background sealer drains
// committed row batches into segments (see store.go), the query
// processor's filter+aggregate path vectorizes over them (filter.go,
// internal/query), and journal mining serves sealed insert history
// from segments instead of replaying the WAL. This is ROADMAP item 3:
// "replay a week of events through a new CQ" becomes a seconds-scale
// columnar scan instead of a row-map crawl.
package columnar

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"io"
	"math"
	"time"

	"eventdb/internal/storage"
	"eventdb/internal/val"
)

// BatchSize is the number of rows decoded per vector batch. 1k rows
// keeps every working vector comfortably inside L1/L2 while amortizing
// per-batch dispatch over enough rows that the per-row cost is a few
// nanoseconds.
const BatchSize = 1024

// Zone is a column's zone map: the segment-level summary consulted
// before any row of the column is decoded.
type Zone struct {
	// Min and Max bound the column's non-null values. Only meaningful
	// when OK; a column of all nulls (or containing NaN, which defeats
	// ordering) has OK=false and is never used for pruning.
	Min, Max val.Value
	OK       bool
	// Nulls counts null rows in the column.
	Nulls int
}

// Segment is one immutable sealed batch of table history: rows
// [FirstID..LastID] committed at LSNs [FirstLSN..LastLSN], stored
// column-wise. All fields are frozen at seal time except the dead
// bitmap, which the owning TableStore maintains under its lock as
// later commits update or delete sealed rows.
type Segment struct {
	table  string
	schema *storage.Schema
	rows   int

	// ids holds each row's RowID, strictly increasing (IDs are
	// allocated monotonically and commits deliver in order), so row
	// position is a binary search away.
	ids []storage.RowID
	// lsns holds each row's commit LSN, non-decreasing. Zero throughout
	// on a volatile database.
	lsns []uint64

	firstLSN, lastLSN uint64

	cols []column

	// dead marks rows superseded after sealing (updated or deleted in
	// the row store). Guarded by the owning TableStore's mutex; nil
	// until the first mark. Scans skip dead rows; history mining
	// (REPLAY) deliberately ignores the bitmap — the insert happened
	// regardless of the row's later fate.
	dead      []uint64
	deadCount int

	bytes int // approximate in-memory footprint
}

// Table returns the table this segment holds history for.
func (s *Segment) Table() string { return s.table }

// Rows returns the number of rows sealed in the segment.
func (s *Segment) Rows() int { return s.rows }

// Bounds returns the segment's RowID and LSN coverage.
func (s *Segment) Bounds() (firstID, lastID storage.RowID, firstLSN, lastLSN uint64) {
	return s.ids[0], s.ids[s.rows-1], s.firstLSN, s.lastLSN
}

// DeadRows returns how many sealed rows have been superseded.
func (s *Segment) DeadRows() int { return s.deadCount }

// MemBytes returns the approximate in-memory size of the segment.
func (s *Segment) MemBytes() int { return s.bytes }

// RowID returns the RowID of row i.
func (s *Segment) RowID(i int) storage.RowID { return s.ids[i] }

// LSN returns the commit LSN of row i.
func (s *Segment) LSN(i int) uint64 { return s.lsns[i] }

// find returns the position of id in the segment, or -1.
func (s *Segment) find(id storage.RowID) int {
	lo, hi := 0, s.rows
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.ids[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < s.rows && s.ids[lo] == id {
		return lo
	}
	return -1
}

// markDead flags row position i as superseded. Caller holds the
// TableStore lock.
func (s *Segment) markDead(i int) {
	if s.dead == nil {
		s.dead = make([]uint64, (s.rows+63)/64)
	}
	w, b := i/64, uint(i%64)
	if s.dead[w]&(1<<b) == 0 {
		s.dead[w] |= 1 << b
		s.deadCount++
	}
}

// deadBit reports whether row i is marked dead in the given bitmap
// (nil = nothing dead).
func deadBit(bits []uint64, i int) bool {
	if bits == nil {
		return false
	}
	return bits[i/64]&(1<<uint(i%64)) != 0
}

// Zone returns the zone map for schema column ci.
func (s *Segment) Zone(ci int) Zone { return s.cols[ci].zone() }

// column is one sealed column's encoded storage.
type column interface {
	kind() val.Kind
	zone() Zone
	// newCursor returns a sequential decoder positioned at row 0.
	newCursor() cursor
	// memBytes approximates the column's in-memory footprint.
	memBytes() int
}

// cursor decodes a column front to back, BatchSize rows at a time.
type cursor interface {
	// next decodes the next n values into dst. n is at most BatchSize;
	// dst's buffers are reused across calls.
	next(dst *Vector, n int)
}

// Vector is a decoded batch of one column. Exactly one payload slice
// is populated, per Kind:
//
//	int, time, bool → I64 (time as Unix nanoseconds, bool as 0/1)
//	float           → F64
//	string          → Code (+ Dict, the segment-wide dictionary)
//	bytes           → Bytes (sub-slices of the cursor's blob; read-only)
//
// Null[i] reports row nullness and is always populated.
type Vector struct {
	Kind  val.Kind
	I64   []int64
	F64   []float64
	Code  []uint32
	Dict  []string
	Bytes [][]byte
	Null  []bool
}

// Value boxes row i of the vector back into a val.Value. This is the
// materialization path for matched rows only — the filter and
// aggregate kernels never box.
func (v *Vector) Value(i int) val.Value {
	if v.Null[i] {
		return val.Null
	}
	switch v.Kind {
	case val.KindInt:
		return val.Int(v.I64[i])
	case val.KindFloat:
		return val.Float(v.F64[i])
	case val.KindString:
		return val.String(v.Dict[v.Code[i]])
	case val.KindBool:
		return val.Bool(v.I64[i] != 0)
	case val.KindTime:
		return val.Time(time.Unix(0, v.I64[i]).UTC())
	case val.KindBytes:
		return val.Bytes(v.Bytes[i])
	default:
		return val.Null
	}
}

// Batch is one decoded slab of segment rows: rows [Start, Start+Len)
// with Vecs[ci] populated for every requested schema column (nil
// otherwise).
type Batch struct {
	Seg   *Segment
	Start int
	Len   int
	Vecs  []*Vector
}

// Reader streams a segment's rows as batches, decoding only the
// requested columns. All buffers are allocated once at construction
// and reused, so a full-segment scan costs a handful of allocations
// total, none per row.
type Reader struct {
	seg     *Segment
	cursors []cursor // per schema column, nil when not requested
	vecs    []Vector
	pos     int
}

// NewReader creates a reader over the segment decoding the columns
// where need[ci] is true (need == nil decodes every column).
func (s *Segment) NewReader(need []bool) *Reader {
	r := &Reader{
		seg:     s,
		cursors: make([]cursor, len(s.cols)),
		vecs:    make([]Vector, len(s.cols)),
	}
	for ci, c := range s.cols {
		if need != nil && !need[ci] {
			continue
		}
		r.cursors[ci] = c.newCursor()
		v := &r.vecs[ci]
		v.Kind = c.kind()
		v.Null = make([]bool, BatchSize)
		switch c.kind() {
		case val.KindInt, val.KindTime, val.KindBool:
			v.I64 = make([]int64, BatchSize)
		case val.KindFloat:
			v.F64 = make([]float64, BatchSize)
		case val.KindString:
			v.Code = make([]uint32, BatchSize)
			v.Dict = c.(*strColumn).dict
		case val.KindBytes:
			v.Bytes = make([][]byte, BatchSize)
		}
	}
	return r
}

// Next decodes the next batch into b, returning false at end of
// segment. b's vector pointers alias the reader's reusable buffers
// and are only valid until the following Next call.
func (r *Reader) Next(b *Batch) bool {
	if r.pos >= r.seg.rows {
		return false
	}
	n := r.seg.rows - r.pos
	if n > BatchSize {
		n = BatchSize
	}
	if b.Vecs == nil {
		b.Vecs = make([]*Vector, len(r.cursors))
	}
	for ci, cur := range r.cursors {
		if cur == nil {
			b.Vecs[ci] = nil
			continue
		}
		v := &r.vecs[ci]
		cur.next(v, n)
		b.Vecs[ci] = v
	}
	b.Seg = r.seg
	b.Start = r.pos
	b.Len = n
	r.pos += n
	return true
}

// MaterializeRow boxes batch row i into dst (a full-width
// storage.Row); columns that were not decoded stay Null. dst must
// have len == schema width.
func (b *Batch) MaterializeRow(dst storage.Row, i int) {
	for ci, v := range b.Vecs {
		if v == nil {
			dst[ci] = val.Null
			continue
		}
		dst[ci] = v.Value(i)
	}
}

// ---- column implementations ----

// intColumn stores int64-backed kinds (int, time-as-nanos) as a
// zigzag-varint delta stream: each value is encoded as the delta from
// its predecessor, which collapses timestamps and monotone counters
// to one or two bytes per row. Nulls encode as delta 0 with the
// validity bit cleared.
type intColumn struct {
	k     val.Kind
	data  []byte
	rows  int
	nulls []uint64 // validity bitmap (bit set = null); nil when none
	z     Zone
}

func (c *intColumn) kind() val.Kind { return c.k }
func (c *intColumn) zone() Zone     { return c.z }
func (c *intColumn) memBytes() int  { return len(c.data) + len(c.nulls)*8 }

type intCursor struct {
	c    *intColumn
	off  int
	prev int64
	row  int
}

func (c *intColumn) newCursor() cursor { return &intCursor{c: c} }

func (cur *intCursor) next(dst *Vector, n int) {
	data := cur.c.data
	out := dst.I64[:n]
	nul := dst.Null[:n]
	for i := 0; i < n; i++ {
		d, w := binary.Varint(data[cur.off:])
		cur.off += w
		cur.prev += d
		out[i] = cur.prev
		nul[i] = deadBit(cur.c.nulls, cur.row)
		cur.row++
	}
}

// floatColumn stores float64 values raw (8 bytes each); deltas do not
// compress IEEE doubles usefully.
type floatColumn struct {
	vals  []float64
	nulls []uint64
	z     Zone
}

func (c *floatColumn) kind() val.Kind { return val.KindFloat }
func (c *floatColumn) zone() Zone     { return c.z }
func (c *floatColumn) memBytes() int  { return len(c.vals)*8 + len(c.nulls)*8 }

type floatCursor struct {
	c   *floatColumn
	row int
}

func (c *floatColumn) newCursor() cursor { return &floatCursor{c: c} }

func (cur *floatCursor) next(dst *Vector, n int) {
	copy(dst.F64[:n], cur.c.vals[cur.row:cur.row+n])
	nul := dst.Null[:n]
	for i := 0; i < n; i++ {
		nul[i] = deadBit(cur.c.nulls, cur.row+i)
	}
	cur.row += n
}

// boolColumn stores values and validity as bitmaps: one bit per row
// each way.
type boolColumn struct {
	bits  []uint64
	rows  int
	nulls []uint64
	z     Zone
}

func (c *boolColumn) kind() val.Kind { return val.KindBool }
func (c *boolColumn) zone() Zone     { return c.z }
func (c *boolColumn) memBytes() int  { return len(c.bits)*8 + len(c.nulls)*8 }

type boolCursor struct {
	c   *boolColumn
	row int
}

func (c *boolColumn) newCursor() cursor { return &boolCursor{c: c} }

func (cur *boolCursor) next(dst *Vector, n int) {
	out := dst.I64[:n]
	nul := dst.Null[:n]
	for i := 0; i < n; i++ {
		r := cur.row + i
		if deadBit(cur.c.bits, r) {
			out[i] = 1
		} else {
			out[i] = 0
		}
		nul[i] = deadBit(cur.c.nulls, r)
	}
	cur.row += n
}

// strColumn dictionary-encodes strings: distinct values live once in
// dict (first-appearance order) and rows store uint32 codes. Equality
// filters against a literal become integer compares after one dict
// probe per segment.
type strColumn struct {
	dict  []string
	codes []uint32
	nulls []uint64
	z     Zone
}

func (c *strColumn) kind() val.Kind { return val.KindString }
func (c *strColumn) zone() Zone     { return c.z }
func (c *strColumn) memBytes() int {
	n := len(c.codes)*4 + len(c.nulls)*8
	for _, s := range c.dict {
		n += len(s) + 16
	}
	return n
}

// code returns the dictionary code for s, or -1 if s is not in the
// segment. Used by filter kernels to turn string equality into code
// equality.
func (c *strColumn) code(s string) int {
	for i, d := range c.dict {
		if d == s {
			return i
		}
	}
	return -1
}

type strCursor struct {
	c   *strColumn
	row int
}

func (c *strColumn) newCursor() cursor { return &strCursor{c: c} }

func (cur *strCursor) next(dst *Vector, n int) {
	copy(dst.Code[:n], cur.c.codes[cur.row:cur.row+n])
	nul := dst.Null[:n]
	for i := 0; i < n; i++ {
		nul[i] = deadBit(cur.c.nulls, cur.row+i)
	}
	cur.row += n
}

// bytesColumn stores variable-length blobs back to back with an
// offsets array; decoded vectors hand out sub-slices without copying.
// A blob that deflates to at most half its size is kept packed
// (packed set, blob nil) and each cursor inflates its own copy:
// sealed history is mostly at rest, so memory wins over re-decoding.
type bytesColumn struct {
	offs   []uint32 // len rows+1, offsets into the raw blob
	blob   []byte
	packed []byte
	nulls  []uint64
	z      Zone
}

func (c *bytesColumn) kind() val.Kind { return val.KindBytes }
func (c *bytesColumn) zone() Zone     { return c.z }
func (c *bytesColumn) memBytes() int {
	return len(c.offs)*4 + len(c.blob) + len(c.packed) + len(c.nulls)*8
}

type bytesCursor struct {
	blob []byte
	c    *bytesColumn
	row  int
}

func (c *bytesColumn) newCursor() cursor {
	blob := c.blob
	if c.packed != nil {
		blob = make([]byte, c.offs[len(c.offs)-1])
		if _, err := io.ReadFull(flate.NewReader(bytes.NewReader(c.packed)), blob); err != nil {
			// The packed form was produced in memory by buildBytesColumn
			// and is never written or read back from disk.
			panic("columnar: packed bytes column does not inflate: " + err.Error())
		}
	}
	return &bytesCursor{blob: blob, c: c}
}

func (cur *bytesCursor) next(dst *Vector, n int) {
	nul := dst.Null[:n]
	for i := 0; i < n; i++ {
		r := cur.row + i
		dst.Bytes[i] = cur.blob[cur.c.offs[r]:cur.c.offs[r+1]]
		nul[i] = deadBit(cur.c.nulls, r)
	}
	cur.row += n
}

// ---- zone-map pruning ----

// zoneExcludesEq reports whether the zone map proves no row of the
// column can equal v.
func zoneExcludesEq(z Zone, rows int, v val.Value) bool {
	if v.IsNull() {
		// field = NULL never matches any row (SQL), but that is the
		// filter's job; the zone map only prunes on values.
		return false
	}
	if z.Nulls == rows {
		return true // all null: no value can match
	}
	if !z.OK {
		return false
	}
	if c, err := val.Compare(v, z.Min); err == nil && c < 0 {
		return true
	}
	if c, err := val.Compare(v, z.Max); err == nil && c > 0 {
		return true
	}
	return false
}

// zoneExcludesRange reports whether the zone map proves no row can
// fall in [lo, hi] (either bound may be unbounded; open flags make a
// bound strict).
func zoneExcludesRange(z Zone, rows int, lo, hi val.Value, loOpen, hiOpen, loUnbounded, hiUnbounded bool) bool {
	if z.Nulls == rows {
		return true
	}
	if !z.OK {
		return false
	}
	if !loUnbounded && !lo.IsNull() {
		if c, err := val.Compare(z.Max, lo); err == nil && (c < 0 || (c == 0 && loOpen)) {
			return true
		}
	}
	if !hiUnbounded && !hi.IsNull() {
		if c, err := val.Compare(z.Min, hi); err == nil && (c > 0 || (c == 0 && hiOpen)) {
			return true
		}
	}
	return false
}

// isNaN reports whether v is a floating NaN (which defeats min/max
// ordering and therefore poisons a zone map).
func isNaN(v val.Value) bool {
	if v.Kind() != val.KindFloat {
		return false
	}
	f, _ := v.AsFloat()
	return math.IsNaN(f)
}

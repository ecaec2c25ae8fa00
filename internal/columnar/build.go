package columnar

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"math"

	"eventdb/internal/storage"
	"eventdb/internal/val"
)

// buildSegment seals rows (parallel slices, already in RowID order)
// into an immutable segment. The row slices are not retained; every
// value is re-encoded column-wise.
func buildSegment(table string, schema *storage.Schema, ids []storage.RowID, lsns []uint64, rows []storage.Row) (*Segment, error) {
	n := len(rows)
	if n == 0 {
		return nil, fmt.Errorf("columnar: empty segment for table %q", table)
	}
	s := &Segment{
		table:    table,
		schema:   schema,
		rows:     n,
		ids:      append([]storage.RowID(nil), ids...),
		lsns:     append([]uint64(nil), lsns...),
		firstLSN: lsns[0],
		lastLSN:  lsns[n-1],
		cols:     make([]column, len(schema.Columns)),
	}
	for ci, sc := range schema.Columns {
		col, err := buildColumn(sc.Kind, rows, ci)
		if err != nil {
			return nil, fmt.Errorf("columnar: table %q column %q: %w", table, sc.Name, err)
		}
		s.cols[ci] = col
		s.bytes += col.memBytes()
	}
	s.bytes += n * (8 + 8) // ids + lsns
	return s, nil
}

func buildColumn(k val.Kind, rows []storage.Row, ci int) (column, error) {
	switch k {
	case val.KindInt, val.KindTime:
		return buildIntColumn(k, rows, ci)
	case val.KindFloat:
		return buildFloatColumn(rows, ci)
	case val.KindBool:
		return buildBoolColumn(rows, ci)
	case val.KindString:
		return buildStrColumn(rows, ci)
	case val.KindBytes:
		return buildBytesColumn(rows, ci)
	default:
		return nil, fmt.Errorf("unsupported column kind %s", k)
	}
}

// zoneTrack folds one non-null value into a zone map under
// construction. NaN floats invalidate the zone (they defeat min/max
// ordering, so a segment containing one is never pruned).
type zoneTrack struct {
	z      Zone
	broken bool
}

func (t *zoneTrack) null() { t.z.Nulls++ }

func (t *zoneTrack) add(v val.Value) {
	if t.broken {
		return
	}
	if isNaN(v) {
		t.broken = true
		t.z.OK = false
		return
	}
	if !t.z.OK {
		t.z.Min, t.z.Max, t.z.OK = v, v, true
		return
	}
	if c, err := val.Compare(v, t.z.Min); err == nil && c < 0 {
		t.z.Min = v
	}
	if c, err := val.Compare(v, t.z.Max); err == nil && c > 0 {
		t.z.Max = v
	}
}

func (t *zoneTrack) done() Zone {
	if t.broken {
		return Zone{Nulls: t.z.Nulls}
	}
	return t.z
}

// setNull marks row i null in a lazily allocated validity bitmap.
func setNull(nulls *[]uint64, n, i int) {
	if *nulls == nil {
		*nulls = make([]uint64, (n+63)/64)
	}
	(*nulls)[i/64] |= 1 << uint(i%64)
}

func buildIntColumn(k val.Kind, rows []storage.Row, ci int) (column, error) {
	c := &intColumn{k: k, rows: len(rows)}
	var zt zoneTrack
	var prev int64
	var scratch [binary.MaxVarintLen64]byte
	c.data = make([]byte, 0, len(rows)*2)
	for i, r := range rows {
		v := r[ci]
		var cur int64
		if v.IsNull() {
			setNull(&c.nulls, len(rows), i)
			zt.null()
			cur = prev // delta 0 keeps the stream dense
		} else {
			switch v.Kind() {
			case val.KindInt:
				cur, _ = v.AsInt()
			case val.KindTime:
				t, _ := v.AsTime()
				cur = t.UnixNano()
			default:
				return nil, fmt.Errorf("kind %s in %s column", v.Kind(), k)
			}
			zt.add(v)
		}
		w := binary.PutVarint(scratch[:], cur-prev)
		c.data = append(c.data, scratch[:w]...)
		prev = cur
	}
	c.z = zt.done()
	return c, nil
}

func buildFloatColumn(rows []storage.Row, ci int) (column, error) {
	c := &floatColumn{vals: make([]float64, len(rows))}
	var zt zoneTrack
	for i, r := range rows {
		v := r[ci]
		if v.IsNull() {
			setNull(&c.nulls, len(rows), i)
			zt.null()
			continue
		}
		f, ok := v.AsFloat()
		if !ok {
			return nil, fmt.Errorf("kind %s in float column", v.Kind())
		}
		c.vals[i] = f
		zt.add(val.Float(f))
	}
	c.z = zt.done()
	return c, nil
}

func buildBoolColumn(rows []storage.Row, ci int) (column, error) {
	c := &boolColumn{bits: make([]uint64, (len(rows)+63)/64), rows: len(rows)}
	var zt zoneTrack
	for i, r := range rows {
		v := r[ci]
		if v.IsNull() {
			setNull(&c.nulls, len(rows), i)
			zt.null()
			continue
		}
		b, ok := v.AsBool()
		if !ok {
			return nil, fmt.Errorf("kind %s in bool column", v.Kind())
		}
		if b {
			c.bits[i/64] |= 1 << uint(i%64)
		}
		zt.add(v)
	}
	c.z = zt.done()
	return c, nil
}

func buildStrColumn(rows []storage.Row, ci int) (column, error) {
	c := &strColumn{codes: make([]uint32, len(rows))}
	codeOf := make(map[string]uint32)
	var zt zoneTrack
	for i, r := range rows {
		v := r[ci]
		if v.IsNull() {
			setNull(&c.nulls, len(rows), i)
			zt.null()
			continue
		}
		s, ok := v.AsString()
		if !ok {
			return nil, fmt.Errorf("kind %s in string column", v.Kind())
		}
		code, seen := codeOf[s]
		if !seen {
			if len(c.dict) > math.MaxUint32 {
				return nil, fmt.Errorf("dictionary overflow")
			}
			code = uint32(len(c.dict))
			c.dict = append(c.dict, s)
			codeOf[s] = code
		}
		c.codes[i] = code
		zt.add(v)
	}
	c.z = zt.done()
	return c, nil
}

func buildBytesColumn(rows []storage.Row, ci int) (column, error) {
	c := &bytesColumn{offs: make([]uint32, len(rows)+1)}
	var zt zoneTrack
	for i, r := range rows {
		v := r[ci]
		if v.IsNull() {
			setNull(&c.nulls, len(rows), i)
			zt.null()
			c.offs[i+1] = c.offs[i]
			continue
		}
		b, ok := v.AsBytes()
		if !ok {
			return nil, fmt.Errorf("kind %s in bytes column", v.Kind())
		}
		if len(c.blob)+len(b) > math.MaxUint32 {
			return nil, fmt.Errorf("blob overflow")
		}
		c.blob = append(c.blob, b...)
		c.offs[i+1] = uint32(len(c.blob))
		zt.add(v)
	}
	c.z = zt.done()
	if p := pack(c.blob); p != nil {
		c.blob, c.packed = nil, p
	}
	return c, nil
}

// pack deflates blob at BestSpeed and returns the result if it is at
// most half the size, else nil (the blob stays raw).
func pack(blob []byte) []byte {
	if len(blob) == 0 {
		return nil
	}
	var buf bytes.Buffer
	buf.Grow(len(blob)/2 + 64)
	w, _ := flate.NewWriter(&buf, flate.BestSpeed) // errors only on a bad level
	if _, err := w.Write(blob); err != nil {
		return nil
	}
	if err := w.Close(); err != nil || buf.Len()*2 > len(blob) {
		return nil
	}
	return bytes.Clone(buf.Bytes())
}

package storage

import (
	"errors"

	"eventdb/internal/val"
)

// txnOp is a buffered mutation.
type txnOp struct {
	kind  ChangeKind
	table string
	ids   []RowID              // update/delete targets
	row   Row                  // insert payload
	set   map[string]val.Value // update payload
	// match, when set, makes an update/delete conditional: see
	// UpdateMatching. Without it every target must exist.
	match func(Row) (bool, error)
}

// Txn buffers mutations and applies them atomically on Commit.
//
// Reads during a transaction see committed state only: buffered writes
// become visible at commit. Updating or deleting a row inserted by the
// same transaction is therefore not supported; structure multi-step
// logic as separate transactions or compute the final row up front.
type Txn struct {
	db   *DB
	ops  []txnOp
	done bool
}

// Begin starts a transaction.
func (db *DB) Begin() *Txn { return &Txn{db: db} }

// ErrTxnDone is returned when using a committed or rolled-back Txn.
var ErrTxnDone = errors.New("storage: transaction already finished")

// Insert buffers a named-column insert; omitted columns take defaults.
func (t *Txn) Insert(table string, values map[string]val.Value) error {
	if t.done {
		return ErrTxnDone
	}
	tbl, ok := t.db.Table(table)
	if !ok {
		return errors.New("storage: no table " + table)
	}
	row, err := tbl.schema.RowFromMap(values)
	if err != nil {
		return err
	}
	t.ops = append(t.ops, txnOp{kind: Insert, table: table, row: row})
	return nil
}

// InsertRow buffers a positional insert.
func (t *Txn) InsertRow(table string, row Row) error {
	if t.done {
		return ErrTxnDone
	}
	t.ops = append(t.ops, txnOp{kind: Insert, table: table, row: row})
	return nil
}

// Update buffers a partial update of the row with the given ID.
func (t *Txn) Update(table string, id RowID, set map[string]val.Value) error {
	if t.done {
		return ErrTxnDone
	}
	cp := make(map[string]val.Value, len(set))
	for k, v := range set {
		cp[k] = v
	}
	t.ops = append(t.ops, txnOp{kind: Update, table: table, ids: []RowID{id}, set: cp})
	return nil
}

// Delete buffers a row deletion.
func (t *Txn) Delete(table string, id RowID) error {
	if t.done {
		return ErrTxnDone
	}
	t.ops = append(t.ops, txnOp{kind: Delete, table: table, ids: []RowID{id}})
	return nil
}

// UpdateMatching buffers an update, with the same set values, of each
// row in ids that still exists and still satisfies match at commit.
// match runs under the table's write lock, so the test and the write
// are one atomic step: rows deleted or changed by a concurrent commit
// are skipped rather than failing or being overwritten, and are absent
// from the commit's changes. A match error aborts the commit.
func (t *Txn) UpdateMatching(table string, ids []RowID, set map[string]val.Value, match func(Row) (bool, error)) error {
	if t.done {
		return ErrTxnDone
	}
	cp := make(map[string]val.Value, len(set))
	for k, v := range set {
		cp[k] = v
	}
	t.ops = append(t.ops, txnOp{kind: Update, table: table, ids: ids, set: cp, match: match})
	return nil
}

// DeleteMatching buffers the deletion of each row in ids that still
// exists and still satisfies match at commit, with UpdateMatching's
// semantics.
func (t *Txn) DeleteMatching(table string, ids []RowID, match func(Row) (bool, error)) error {
	if t.done {
		return ErrTxnDone
	}
	t.ops = append(t.ops, txnOp{kind: Delete, table: table, ids: ids, match: match})
	return nil
}

// Pending returns the number of buffered operations.
func (t *Txn) Pending() int { return len(t.ops) }

// Commit atomically validates and applies all buffered operations. On
// any error nothing is applied.
func (t *Txn) Commit() (*CommitInfo, error) {
	if t.done {
		return nil, ErrTxnDone
	}
	t.done = true
	return t.db.commit(t.ops)
}

// Rollback discards buffered operations.
func (t *Txn) Rollback() {
	t.done = true
	t.ops = nil
}

// Convenience single-operation transactions.

// Insert inserts one row in its own transaction, returning its row ID.
func (db *DB) Insert(table string, values map[string]val.Value) (RowID, error) {
	txn := db.Begin()
	if err := txn.Insert(table, values); err != nil {
		return 0, err
	}
	info, err := txn.Commit()
	if err != nil {
		return 0, err
	}
	return info.Changes[0].ID, nil
}

// InsertRow inserts one positional row in its own transaction.
func (db *DB) InsertRow(table string, row Row) (RowID, error) {
	txn := db.Begin()
	if err := txn.InsertRow(table, row); err != nil {
		return 0, err
	}
	info, err := txn.Commit()
	if err != nil {
		return 0, err
	}
	return info.Changes[0].ID, nil
}

// UpdateRow updates one row in its own transaction.
func (db *DB) UpdateRow(table string, id RowID, set map[string]val.Value) error {
	txn := db.Begin()
	if err := txn.Update(table, id, set); err != nil {
		return err
	}
	_, err := txn.Commit()
	return err
}

// DeleteRow deletes one row in its own transaction.
func (db *DB) DeleteRow(table string, id RowID) error {
	txn := db.Begin()
	if err := txn.Delete(table, id); err != nil {
		return err
	}
	_, err := txn.Commit()
	return err
}

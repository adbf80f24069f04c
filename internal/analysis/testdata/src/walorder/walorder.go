// Package walorder is the fixture for the walorder analyzer: inside a
// WAL-owning type, engine mutations must be dominated by a wal.Append.
package walorder

import "nntstream/internal/wal"

type inner struct {
	queries map[int]string
}

func (in *inner) AddQuery(id int, q string) error {
	in.queries[id] = q
	return nil
}

func (in *inner) StepAll() error { return nil }

func (in *inner) stepCount() (int, error) { return 0, nil }

func (in *inner) applyRecord(r wal.Record) (int, error) { return 0, nil }

type durable struct {
	log   *wal.Log
	inner inner
}

func (d *durable) goodAppendFirst(id int, q string) error {
	if _, err := d.log.Append(wal.Record{}); err != nil {
		return err
	}
	return d.inner.AddQuery(id, q)
}

func (d *durable) badApplyFirst(id int, q string) error {
	if err := d.inner.AddQuery(id, q); err != nil { // want `d\.inner\.AddQuery mutates engine state without a preceding wal\.Append`
		return err
	}
	_, err := d.log.Append(wal.Record{})
	return err
}

func (d *durable) badNoAppend() error {
	return d.inner.StepAll() // want `d\.inner\.StepAll mutates engine state without a preceding wal\.Append`
}

func (d *durable) badCountNoAppend() (int, error) {
	return d.inner.stepCount() // want `d\.inner\.stepCount mutates engine state without a preceding wal\.Append`
}

func (d *durable) badApplyRecordNoAppend(r wal.Record) error {
	_, err := d.inner.applyRecord(r) // want `d\.inner\.applyRecord mutates engine state without a preceding wal\.Append`
	return err
}

// commit is the durable engine's write shape: append and apply each record
// inside a group commit's closure.
func (d *durable) goodCommit(recs ...wal.Record) error {
	return d.log.GroupCommit(func() error {
		for _, r := range recs {
			if _, err := d.log.Append(r); err != nil {
				return err
			}
			if _, err := d.inner.applyRecord(r); err != nil {
				return err
			}
		}
		return nil
	})
}

func (d *durable) goodReplaySuppressed(id int, q string) error {
	//lint:ignore walorder replay applies records already present in the log
	return d.inner.AddQuery(id, q)
}

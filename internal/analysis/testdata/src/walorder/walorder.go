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

// logged is the append-dominating helper shape: append, then apply.
func (d *durable) logged(r wal.Record, apply func() error) error {
	if _, err := d.log.Append(r); err != nil {
		return err
	}
	return apply()
}

func (d *durable) goodViaHelper(id int, q string) error {
	return d.logged(wal.Record{}, func() error {
		return d.inner.AddQuery(id, q)
	})
}

func (d *durable) goodReplaySuppressed(id int, q string) error {
	//lint:ignore walorder replay applies records already present in the log
	return d.inner.AddQuery(id, q)
}

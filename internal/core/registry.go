package core

import (
	"fmt"

	"repro/internal/blob"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/sqltypes"
)

// RegisterScalar installs a scalar user-defined function — the engine's
// counterpart of a CLR scalar UDF (paper Section 2.3.2) — in its boxed
// form. A name that is a built-in's loses the built-in, kernel and all:
// statements call fn through the boxed adapter, once per row.
func (db *Database) RegisterScalar(name string, fn expr.ScalarFunc) {
	db.scalars.Register(name, fn)
}

// RegisterAggregate installs a user-defined aggregate. Because the
// AggState contract includes Merge, the engine parallelizes UDAs exactly
// like built-in aggregates (paper Section 2.3.4).
func (db *Database) RegisterAggregate(name string, factory exec.AggFactory) {
	db.aggs[lower(name)] = factory
}

// RegisterTVF installs a table-valued function with the pull-model
// iterator contract of the paper's Section 4.1.
func (db *Database) RegisterTVF(name string, tvf plan.TVF) {
	db.tvfs[lower(name)] = tvf
}

// registerEngineFunctions installs the engine-provided scalars that need
// database state: NEWID() and the FileStream accessors standing in for the
// paper's reads.PathName() / DATALENGTH(reads) column methods. They are
// boxed only: each call reaches the blob store or draws a GUID, which a
// kernel would not make cheaper.
func (db *Database) registerEngineFunctions() {
	db.scalars.Register("newid", func(args []sqltypes.Value) (sqltypes.Value, error) {
		if len(args) != 0 {
			return sqltypes.Null, fmt.Errorf("core: NEWID takes no arguments")
		}
		return sqltypes.NewString(blob.NewGUID()), nil
	})
	db.scalars.Register("filepathname", func(args []sqltypes.Value) (sqltypes.Value, error) {
		if len(args) != 1 {
			return sqltypes.Null, fmt.Errorf("core: FILEPATHNAME takes the blob guid")
		}
		if args[0].IsNull() {
			return sqltypes.Null, nil
		}
		p, err := db.blobs.PathName(args[0].AsString())
		if err != nil {
			return sqltypes.Null, err
		}
		return sqltypes.NewString(p), nil
	})
	db.scalars.Register("filedatalength", func(args []sqltypes.Value) (sqltypes.Value, error) {
		if len(args) != 1 {
			return sqltypes.Null, fmt.Errorf("core: FILEDATALENGTH takes the blob guid")
		}
		if args[0].IsNull() {
			return sqltypes.Null, nil
		}
		n, err := db.blobs.Size(args[0].AsString())
		if err != nil {
			return sqltypes.Null, err
		}
		return sqltypes.NewInt(n), nil
	})
}

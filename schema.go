package ankerdb

import (
	"ankerdb/internal/cost"
	"ankerdb/internal/index"
	"ankerdb/internal/mvcc"
	"ankerdb/internal/storage"
	"ankerdb/internal/vmem"
)

// The facade re-exports the handful of internal types that appear in
// its API as aliases, so callers build schemas, pick transaction
// classes and tune cost models without importing internal packages
// (which the Go toolchain forbids outside this module).

// Schema declares a table layout.
type Schema = storage.Schema

// ColumnDef declares one column of a Schema.
type ColumnDef = storage.ColumnDef

// ColumnType is the logical type of a column; every type is physically
// a 64-bit word.
type ColumnType = storage.Type

// Column types.
const (
	Int64   = storage.Int64
	Money   = storage.Money
	Date    = storage.Date
	Varchar = storage.Varchar
)

// IndexKind selects the physical layout of a secondary index: Hash
// serves equality probes in O(1), Ordered (sorted runs) additionally
// serves ranges. NoIndex — the zero value — declares no index.
type IndexKind = index.Kind

// Index kinds, used in ColumnDef.Index, SchemaBuilder.Indexed and
// DB.CreateIndex.
const (
	NoIndex = index.None
	Hash    = index.Hash
	Ordered = index.Ordered
)

// SchemaBuilder composes a Schema fluently:
//
//	db.CreateTable(ankerdb.NewSchema("users").
//		Int64("uid").Indexed(ankerdb.Hash).
//		String("email").Indexed(ankerdb.Ordered).
//		Money("balance").
//		Build(), 1<<16)
//
// The literal Schema{...} form keeps working — the builder produces
// the same exported fields.
type SchemaBuilder struct {
	s Schema
}

// NewSchema starts a builder for the named table.
func NewSchema(table string) *SchemaBuilder {
	return &SchemaBuilder{s: Schema{Table: table}}
}

func (b *SchemaBuilder) column(name string, t ColumnType) *SchemaBuilder {
	b.s.Columns = append(b.s.Columns, ColumnDef{Name: name, Type: t})
	return b
}

// Int64 appends an INT64 column.
func (b *SchemaBuilder) Int64(name string) *SchemaBuilder { return b.column(name, Int64) }

// Money appends a MONEY column (fixed-point cents).
func (b *SchemaBuilder) Money(name string) *SchemaBuilder { return b.column(name, Money) }

// Date appends a DATE column (days since 1970-01-01).
func (b *SchemaBuilder) Date(name string) *SchemaBuilder { return b.column(name, Date) }

// String appends a VARCHAR column (dictionary-encoded).
func (b *SchemaBuilder) String(name string) *SchemaBuilder { return b.column(name, Varchar) }

// Varchar is an alias for String.
func (b *SchemaBuilder) Varchar(name string) *SchemaBuilder { return b.column(name, Varchar) }

// Indexed declares a secondary index of the given kind on the most
// recently appended column. On a VARCHAR column the index covers
// dictionary codes, so equality probes work but ordered ranges follow
// code order, not lexicographic order.
func (b *SchemaBuilder) Indexed(kind IndexKind) *SchemaBuilder {
	if n := len(b.s.Columns); n > 0 {
		b.s.Columns[n-1].Index = kind
	}
	return b
}

// Build returns the composed Schema.
func (b *SchemaBuilder) Build() Schema {
	s := b.s
	s.Columns = append([]ColumnDef(nil), b.s.Columns...)
	return s
}

// TxnClass is the paper's transaction classification: short modifying
// OLTP transactions versus long read-only OLAP transactions.
type TxnClass = mvcc.Class

// Transaction classes, passed to DB.Begin.
const (
	OLTP = mvcc.OLTP
	OLAP = mvcc.OLAP
)

// CostModel prices the simulated kernel's events (syscall entries, VMA
// operations, page faults, signal delivery) for Stats.SimKernelTime:
// simulated kernel time is VMStats counts × model, computed on read.
type CostModel = cost.Model

// Predefined cost models: DefaultCost is calibrated to the order of
// magnitude of Linux on the paper's hardware; ZeroCost prices every
// event at nothing.
var (
	DefaultCost = cost.Default
	ZeroCost    = cost.Zero
)

// VMStats are the cumulative counters of the simulated virtual memory
// subsystem (COW breaks, minor faults, VMA bookkeeping, vm_snapshot
// calls), reported inside Stats.
type VMStats = vmem.Stats

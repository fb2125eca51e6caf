// Package catalog holds table metadata: columns, SQL types, primary keys,
// physical options (compression, clustering, FILESTREAM columns) and their
// persistence. It is the implementation of the paper's normalized
// relational schema design (Section 3.2) plus the physical design choices
// of Section 3.3.
package catalog

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"sync"

	"repro/internal/seq"
	"repro/internal/sqltypes"
	"repro/internal/storage"
)

// TypeName enumerates supported SQL scalar types.
type TypeName string

// Supported SQL types. SEQUENCE is the paper's proposed domain-specific
// genomic sequence UDT: it is queried as a string but stored 2-bit packed
// (Section 5.1.2: "a bit-encoding of the sequences could reduce the size
// to just about a quarter").
const (
	TypeInt       TypeName = "INT"
	TypeBigInt    TypeName = "BIGINT"
	TypeFloat     TypeName = "FLOAT"
	TypeBit       TypeName = "BIT"
	TypeVarchar   TypeName = "VARCHAR"
	TypeVarbinary TypeName = "VARBINARY"
	TypeGUID      TypeName = "UNIQUEIDENTIFIER"
	TypeSequence  TypeName = "SEQUENCE"
)

// ColumnType is a resolved SQL type.
type ColumnType struct {
	Name TypeName `json:"name"`
	// MaxLen bounds VARCHAR/VARBINARY lengths; 0 means MAX (unbounded).
	MaxLen int `json:"max_len,omitempty"`
	// FileStream marks VARBINARY(MAX) FILESTREAM columns whose value is a
	// blob GUID resolved through the blob store.
	FileStream bool `json:"filestream,omitempty"`
}

// Kind returns the runtime value kind queries see for this type.
func (t ColumnType) Kind() sqltypes.Kind {
	switch t.Name {
	case TypeInt, TypeBigInt:
		return sqltypes.KindInt
	case TypeFloat:
		return sqltypes.KindFloat
	case TypeBit:
		return sqltypes.KindBool
	case TypeVarchar, TypeGUID, TypeSequence:
		return sqltypes.KindString
	case TypeVarbinary:
		return sqltypes.KindBytes
	}
	return sqltypes.KindNull
}

// StorageKind returns the kind persisted in pages. SEQUENCE columns store
// packed bytes; everything else stores its query kind.
func (t ColumnType) StorageKind() sqltypes.Kind {
	if t.Name == TypeSequence {
		return sqltypes.KindBytes
	}
	return t.Kind()
}

// String renders the T-SQL spelling.
func (t ColumnType) String() string {
	s := string(t.Name)
	if (t.Name == TypeVarchar || t.Name == TypeVarbinary) && t.MaxLen > 0 {
		s += fmt.Sprintf("(%d)", t.MaxLen)
	} else if t.Name == TypeVarchar || t.Name == TypeVarbinary {
		s += "(MAX)"
	}
	if t.FileStream {
		s += " FILESTREAM"
	}
	return s
}

// Column is one table column.
type Column struct {
	Name    string     `json:"name"`
	Type    ColumnType `json:"type"`
	NotNull bool       `json:"not_null,omitempty"`
}

// Index is a secondary index over a heap table: a B+-tree keyed by the
// indexed column values with the heap row position as a key suffix.
type Index struct {
	Name    string `json:"name"`
	Columns []int  `json:"columns"` // column indexes, in key order
}

// Table is a table definition plus physical options.
type Table struct {
	ID          uint32              `json:"id"`
	Name        string              `json:"name"`
	Columns     []Column            `json:"columns"`
	PrimaryKey  []int               `json:"primary_key,omitempty"` // column indexes
	Clustered   bool                `json:"clustered,omitempty"`   // PK is a clustered B+-tree
	Compression storage.Compression `json:"compression,omitempty"`
	Indexes     []Index             `json:"indexes,omitempty"` // secondary (heap tables only)
}

// IndexByName returns the named secondary index (case-insensitive), or nil.
func (t *Table) IndexByName(name string) *Index {
	for i := range t.Indexes {
		if strings.EqualFold(t.Indexes[i].Name, name) {
			return &t.Indexes[i]
		}
	}
	return nil
}

// ColumnIndex returns the index of the named column (case-insensitive), or
// -1.
func (t *Table) ColumnIndex(name string) int {
	for i := range t.Columns {
		if strings.EqualFold(t.Columns[i].Name, name) {
			return i
		}
	}
	return -1
}

// Kinds returns the query-level value kinds of all columns.
func (t *Table) Kinds() []sqltypes.Kind {
	out := make([]sqltypes.Kind, len(t.Columns))
	for i := range t.Columns {
		out[i] = t.Columns[i].Type.Kind()
	}
	return out
}

// StorageKinds returns the persisted kinds of all columns.
func (t *Table) StorageKinds() []sqltypes.Kind {
	out := make([]sqltypes.Kind, len(t.Columns))
	for i := range t.Columns {
		out[i] = t.Columns[i].Type.StorageKind()
	}
	return out
}

// StorageWidths returns fixed integer widths per column for the
// uncompressed row format: INT stores 4 bytes (as in SQL Server), BIGINT
// 8; non-integer columns report 0.
func (t *Table) StorageWidths() []uint8 {
	out := make([]uint8, len(t.Columns))
	for i := range t.Columns {
		switch t.Columns[i].Type.Name {
		case TypeInt:
			out[i] = 4
		case TypeBigInt:
			out[i] = 8
		}
	}
	return out
}

// ToStorageRow validates a query row against the schema and converts it to
// the persisted representation (packing SEQUENCE columns). The input row
// is not modified.
func (t *Table) ToStorageRow(row sqltypes.Row) (sqltypes.Row, error) {
	if len(row) != len(t.Columns) {
		return nil, fmt.Errorf("catalog: %s expects %d columns, got %d", t.Name, len(t.Columns), len(row))
	}
	out := make(sqltypes.Row, len(row))
	for i, v := range row {
		col := &t.Columns[i]
		if v.IsNull() {
			if col.NotNull {
				return nil, fmt.Errorf("catalog: NULL in NOT NULL column %s.%s", t.Name, col.Name)
			}
			out[i] = sqltypes.Null
			continue
		}
		cv, err := coerce(v, col.Type)
		if err != nil {
			return nil, fmt.Errorf("catalog: column %s.%s: %w", t.Name, col.Name, err)
		}
		out[i] = cv
	}
	return out, nil
}

// FromStorageRow converts a persisted row back to its query representation
// (unpacking SEQUENCE columns). The row is converted in place and returned.
func (t *Table) FromStorageRow(row sqltypes.Row) (sqltypes.Row, error) {
	for i := range row {
		if t.Columns[i].Type.Name != TypeSequence || row[i].IsNull() {
			continue
		}
		p, err := seq.Decode(row[i].B)
		if err != nil {
			return nil, fmt.Errorf("catalog: column %s.%s: %w", t.Name, t.Columns[i].Name, err)
		}
		row[i] = sqltypes.NewString(p.Unpack())
	}
	return row, nil
}

// coerce converts v to the declared type, enforcing length bounds.
func coerce(v sqltypes.Value, ct ColumnType) (sqltypes.Value, error) {
	switch ct.Name {
	case TypeInt, TypeBigInt:
		n, err := v.AsInt()
		if err != nil {
			return sqltypes.Null, err
		}
		if ct.Name == TypeInt && (n > math.MaxInt32 || n < math.MinInt32) {
			return sqltypes.Null, fmt.Errorf("value %d overflows INT (use BIGINT)", n)
		}
		return sqltypes.NewInt(n), nil
	case TypeFloat:
		f, err := v.AsFloat()
		if err != nil {
			return sqltypes.Null, err
		}
		return sqltypes.NewFloat(f), nil
	case TypeBit:
		switch v.K {
		case sqltypes.KindBool:
			return v, nil
		case sqltypes.KindInt:
			return sqltypes.NewBool(v.I != 0), nil
		}
		return sqltypes.Null, fmt.Errorf("cannot convert %s to BIT", v.K)
	case TypeVarchar, TypeGUID:
		if v.K != sqltypes.KindString {
			v = sqltypes.NewString(v.AsString())
		}
		if ct.MaxLen > 0 && len(v.S) > ct.MaxLen {
			return sqltypes.Null, fmt.Errorf("value of length %d exceeds %s", len(v.S), ct)
		}
		return v, nil
	case TypeVarbinary:
		var b []byte
		switch v.K {
		case sqltypes.KindBytes:
			b = v.B
		case sqltypes.KindString:
			b = []byte(v.S)
		default:
			return sqltypes.Null, fmt.Errorf("cannot convert %s to VARBINARY", v.K)
		}
		if ct.MaxLen > 0 && len(b) > ct.MaxLen {
			return sqltypes.Null, fmt.Errorf("value of length %d exceeds %s", len(b), ct)
		}
		return sqltypes.NewBytes(b), nil
	case TypeSequence:
		if v.K != sqltypes.KindString {
			return sqltypes.Null, fmt.Errorf("SEQUENCE requires a string value, got %s", v.K)
		}
		p, err := seq.Pack(v.S)
		if err != nil {
			return sqltypes.Null, err
		}
		return sqltypes.NewBytes(p.Encode()), nil
	}
	return sqltypes.Null, fmt.Errorf("unknown type %s", ct.Name)
}

// ParseType resolves a SQL type spelling ("VARCHAR(50)", "VARBINARY(MAX)",
// "INT", "SEQUENCE") into a ColumnType.
func ParseType(spec string) (ColumnType, error) {
	s := strings.ToUpper(strings.TrimSpace(spec))
	fileStream := false
	if strings.HasSuffix(s, " FILESTREAM") {
		fileStream = true
		s = strings.TrimSuffix(s, " FILESTREAM")
		s = strings.TrimSpace(s)
	}
	base, arg := s, ""
	if i := strings.IndexByte(s, '('); i >= 0 {
		if !strings.HasSuffix(s, ")") {
			return ColumnType{}, fmt.Errorf("catalog: malformed type %q", spec)
		}
		base, arg = s[:i], s[i+1:len(s)-1]
	}
	base = strings.TrimSpace(base)
	ct := ColumnType{FileStream: fileStream}
	switch base {
	case "INT", "INTEGER", "SMALLINT":
		ct.Name = TypeInt
	case "BIGINT":
		ct.Name = TypeBigInt
	case "FLOAT", "REAL", "DOUBLE":
		ct.Name = TypeFloat
	case "BIT":
		ct.Name = TypeBit
	case "VARCHAR", "NVARCHAR", "CHAR", "TEXT":
		ct.Name = TypeVarchar
	case "VARBINARY":
		ct.Name = TypeVarbinary
	case "UNIQUEIDENTIFIER":
		ct.Name = TypeGUID
	case "SEQUENCE":
		ct.Name = TypeSequence
	default:
		return ColumnType{}, fmt.Errorf("catalog: unknown type %q", spec)
	}
	if arg != "" && arg != "MAX" {
		var n int
		if _, err := fmt.Sscanf(arg, "%d", &n); err != nil || n <= 0 {
			return ColumnType{}, fmt.Errorf("catalog: bad type length in %q", spec)
		}
		ct.MaxLen = n
	}
	if ct.FileStream && ct.Name != TypeVarbinary {
		return ColumnType{}, fmt.Errorf("catalog: FILESTREAM requires VARBINARY(MAX), got %s", base)
	}
	return ct, nil
}

// Catalog is the set of table definitions, persisted as JSON.
type Catalog struct {
	mu     sync.RWMutex
	path   string
	tables map[string]*Table
	nextID uint32
}

// Open loads (or initializes) the catalog persisted at path.
func Open(path string) (*Catalog, error) {
	c := &Catalog{path: path, tables: map[string]*Table{}, nextID: 1}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return c, nil
	}
	if err != nil {
		return nil, err
	}
	var disk struct {
		NextID uint32   `json:"next_id"`
		Tables []*Table `json:"tables"`
	}
	if err := json.Unmarshal(data, &disk); err != nil {
		return nil, fmt.Errorf("catalog: parse %s: %w", path, err)
	}
	c.nextID = disk.NextID
	for _, t := range disk.Tables {
		c.tables[strings.ToLower(t.Name)] = t
	}
	return c, nil
}

// save persists atomically (tmp + rename).
func (c *Catalog) save() error {
	var disk struct {
		NextID uint32   `json:"next_id"`
		Tables []*Table `json:"tables"`
	}
	disk.NextID = c.nextID
	for _, t := range c.tables {
		disk.Tables = append(disk.Tables, t)
	}
	data, err := json.MarshalIndent(disk, "", "  ")
	if err != nil {
		return err
	}
	tmp := c.path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, c.path)
}

// Create registers a new table and persists the catalog.
func (c *Catalog) Create(t *Table) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(t.Name)
	if _, ok := c.tables[key]; ok {
		return fmt.Errorf("catalog: table %s already exists", t.Name)
	}
	if len(t.Columns) == 0 {
		return fmt.Errorf("catalog: table %s has no columns", t.Name)
	}
	seen := map[string]bool{}
	for _, col := range t.Columns {
		lc := strings.ToLower(col.Name)
		if seen[lc] {
			return fmt.Errorf("catalog: duplicate column %s in %s", col.Name, t.Name)
		}
		seen[lc] = true
	}
	for _, pk := range t.PrimaryKey {
		if pk < 0 || pk >= len(t.Columns) {
			return fmt.Errorf("catalog: primary key column index %d out of range", pk)
		}
	}
	if t.Clustered && len(t.PrimaryKey) == 0 {
		return fmt.Errorf("catalog: clustered table %s needs a primary key", t.Name)
	}
	t.ID = c.nextID
	c.nextID++
	c.tables[key] = t
	return c.save()
}

// Drop removes a table definition.
func (c *Catalog) Drop(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := c.tables[key]; !ok {
		return fmt.Errorf("catalog: table %s does not exist", name)
	}
	delete(c.tables, key)
	return c.save()
}

// AddIndex records a secondary index on a table and persists the catalog.
// This is the commit point of an index build: once the catalog names the
// index, recovery keeps its file; before, the file is an orphan and is
// deleted at open.
func (c *Catalog) AddIndex(table string, idx Index) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.tables[strings.ToLower(table)]
	if !ok {
		return fmt.Errorf("catalog: table %s does not exist", table)
	}
	if t.IndexByName(idx.Name) != nil {
		return fmt.Errorf("catalog: index %s already exists on %s", idx.Name, table)
	}
	if len(idx.Columns) == 0 {
		return fmt.Errorf("catalog: index %s has no columns", idx.Name)
	}
	for _, ci := range idx.Columns {
		if ci < 0 || ci >= len(t.Columns) {
			return fmt.Errorf("catalog: index %s column index %d out of range", idx.Name, ci)
		}
	}
	t.Indexes = append(t.Indexes, idx)
	return c.save()
}

// DropIndex removes a secondary index definition and persists the catalog.
func (c *Catalog) DropIndex(table, name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.tables[strings.ToLower(table)]
	if !ok {
		return fmt.Errorf("catalog: table %s does not exist", table)
	}
	for i := range t.Indexes {
		if strings.EqualFold(t.Indexes[i].Name, name) {
			t.Indexes = append(t.Indexes[:i], t.Indexes[i+1:]...)
			return c.save()
		}
	}
	return fmt.Errorf("catalog: index %s does not exist on %s", name, table)
}

// Get returns a table definition, or nil.
func (c *Catalog) Get(name string) *Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.tables[strings.ToLower(name)]
}

// ByID returns a table definition by id, or nil.
func (c *Catalog) ByID(id uint32) *Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, t := range c.tables {
		if t.ID == id {
			return t
		}
	}
	return nil
}

// List returns all table names (sorted order not guaranteed).
func (c *Catalog) List() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t.Name)
	}
	return out
}

package core

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/catalog"
	"repro/internal/sqltypes"
)

// Data provenance management — the paper's closing future-work item:
// "When and how were short-reads sequenced, which alignment algorithm
// with certain parameters was used to align them against (a specific
// version of) the Human reference genome? These are central questions to
// control the quality of sequencing results."
//
// The engine records provenance in an ordinary system table
// (_provenance), so it is queryable with the same SQL as the data it
// describes, survives crashes through the normal WAL path, and rolls
// back with the transaction that produced the data.

// provenanceTable is the system table name.
const provenanceTable = "_provenance"

// ProvenanceRecord describes one derivation step.
type ProvenanceRecord struct {
	ID int64
	// Entity is what was produced, e.g. "table:Alignment" or
	// "blob:<guid>".
	Entity string
	// Activity names the producing step, e.g. "align", "import",
	// "consensus".
	Activity string
	// Tool and Params identify the program and its configuration.
	Tool   string
	Params string
	// Inputs lists the entities consumed, comma-separated.
	Inputs string
	// At is the wall-clock time of the step (unix nanoseconds).
	At int64
}

// ensureProvenanceTable creates the system table on first use.
func (db *Database) ensureProvenanceTable() error {
	if db.cat.Get(provenanceTable) != nil {
		return nil
	}
	bigT, _ := catalog.ParseType("BIGINT")
	strT, _ := catalog.ParseType("VARCHAR(MAX)")
	def := &catalog.Table{
		Name: provenanceTable,
		Columns: []catalog.Column{
			{Name: "p_id", Type: bigT, NotNull: true},
			{Name: "entity", Type: strT, NotNull: true},
			{Name: "activity", Type: strT, NotNull: true},
			{Name: "tool", Type: strT},
			{Name: "params", Type: strT},
			{Name: "inputs", Type: strT},
			{Name: "at", Type: bigT},
		},
	}
	if err := db.cat.Create(def); err != nil {
		return err
	}
	return db.openTableStorage(def)
}

// RecordProvenance appends a provenance record within the default
// session's current transaction (or its own autocommit one). The
// record's ID is returned. Creating the system table on first use is DDL
// and is not undone by a later rollback; the record itself is
// transactional.
func (db *Database) RecordProvenance(rec ProvenanceRecord) (int64, error) {
	return db.defaultSess.RecordProvenance(rec)
}

// RecordProvenance appends a provenance record within this session's
// transaction scope.
func (s *Session) RecordProvenance(rec ProvenanceRecord) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	db := s.db
	if err := db.healthErr(); err != nil {
		return 0, err
	}
	// Exclusive: first use may create the system table (DDL), and the
	// exclusive lock keeps record-ID assignment race-free.
	db.mu.Lock()
	defer db.mu.Unlock()
	t := s.currentTxn()
	id, execErr := db.recordProvenanceInTxn(t, rec)
	if err := db.finishAuto(t, execErr); err != nil {
		return 0, err
	}
	return id, nil
}

// recordProvenanceInTxn inserts the record under an already-running
// transaction (used by import paths that bundle data + provenance).
func (db *Database) recordProvenanceInTxn(t *Txn, rec ProvenanceRecord) (int64, error) {
	if err := db.ensureProvenanceTable(); err != nil {
		return 0, err
	}
	td, err := db.table(provenanceTable)
	if err != nil {
		return 0, err
	}
	if rec.At == 0 {
		rec.At = time.Now().UnixNano()
	}
	rec.ID = td.insertSeq + 1
	err = db.insertRows(t, td, []sqltypes.Row{{
		sqltypes.NewInt(rec.ID),
		sqltypes.NewString(rec.Entity),
		sqltypes.NewString(rec.Activity),
		sqltypes.NewString(rec.Tool),
		sqltypes.NewString(rec.Params),
		sqltypes.NewString(rec.Inputs),
		sqltypes.NewInt(rec.At),
	}})
	if err != nil {
		return 0, err
	}
	return rec.ID, nil
}

// Provenance returns the recorded derivation steps for an entity, oldest
// first. With transitive=true the lineage is followed through the Inputs
// edges (the provenance graph walk the paper asks for: which aligner,
// which reference version, which run).
func (db *Database) Provenance(entity string, transitive bool) ([]ProvenanceRecord, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.cat.Get(provenanceTable) == nil {
		return nil, nil
	}
	var all []ProvenanceRecord
	err := db.ScanTableNoLock(provenanceTable, func(row sqltypes.Row) error {
		all = append(all, ProvenanceRecord{
			ID:       row[0].I,
			Entity:   row[1].S,
			Activity: row[2].S,
			Tool:     row[3].S,
			Params:   row[4].S,
			Inputs:   row[5].S,
			At:       row[6].I,
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	want := map[string]bool{entity: true}
	if transitive {
		// Iterate to a fixed point: inputs of matched records join the
		// frontier. Records are few; quadratic is fine.
		for changed := true; changed; {
			changed = false
			for _, r := range all {
				if !want[r.Entity] {
					continue
				}
				for _, in := range splitInputs(r.Inputs) {
					if !want[in] {
						want[in] = true
						changed = true
					}
				}
			}
		}
	}
	var out []ProvenanceRecord
	for _, r := range all {
		if want[r.Entity] {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

func splitInputs(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

// BlobEntity renders the provenance entity name of a FileStream blob.
func BlobEntity(guid string) string { return "blob:" + guid }

// TableEntity renders the provenance entity name of a table.
func TableEntity(name string) string { return "table:" + strings.ToLower(name) }

// describeValues renders import metadata for auto-recorded provenance.
func describeValues(values map[string]sqltypes.Value) string {
	keys := make([]string, 0, len(values))
	for k := range values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%s", k, values[k].AsString()))
	}
	return strings.Join(parts, " ")
}

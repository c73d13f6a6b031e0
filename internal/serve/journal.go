package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// The job journal is the service's write-ahead log: one NDJSON record per
// state transition, fsync'd before the transition is acknowledged. Its
// contract is exactly-once execution of accepted work across process
// death — an admitted job either reaches a terminal marker in the journal
// or is re-queued, in original admission order, on the next start.
//
// Record types:
//
//	{"type":"meta","seq":N}                          highest id ever issued
//	{"type":"admit","seq":N,"id":"j-…","tenant":…,
//	 "job":<canonical JSON + deadline/max_steps>}    job accepted
//	{"type":"done","id":"j-…","status":"done|failed|cancelled","error":…}
//
// Only the last line of the file may be torn (the file is opened
// O_APPEND and every record is one write); replay tolerates exactly that.
// On startup the journal is compacted: terminal pairs are dropped, the
// surviving admits are rewritten behind a meta record carrying the highest
// sequence ever issued (so job ids are never reused), and the new file is
// published with tmp+fsync+rename+dir-sync.

// journalRecord is one WAL line.
type journalRecord struct {
	Type   string          `json:"type"`
	Seq    int             `json:"seq,omitempty"`
	ID     string          `json:"id,omitempty"`
	Tenant string          `json:"tenant,omitempty"`
	Job    json.RawMessage `json:"job,omitempty"`
	Status JobStatus       `json:"status,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// journal is the open WAL. The Server serializes every append under its
// own lock, so the struct needs no mutex of its own.
type journal struct {
	path string
	f    *os.File
}

// journalName is the WAL's filename inside the journal directory.
const journalName = "jobs.wal"

// openJournal replays and compacts the WAL in dir (creating both as
// needed) and returns the open journal, the admitted-but-unfinished
// records in original admission order, and the highest job sequence ever
// issued.
func openJournal(dir string) (*journal, []journalRecord, int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, 0, fmt.Errorf("serve: journal dir: %w", err)
	}
	path := filepath.Join(dir, journalName)
	pending, maxSeq, err := replayJournal(path)
	if err != nil {
		return nil, nil, 0, err
	}
	// Compact: pending admits behind a meta record, atomically published.
	var buf bytes.Buffer
	writeRec := func(r journalRecord) {
		b, err := json.Marshal(r)
		if err != nil {
			panic(fmt.Sprintf("serve: journal marshal: %v", err)) // no unmarshalable fields
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	writeRec(journalRecord{Type: "meta", Seq: maxSeq})
	for _, r := range pending {
		writeRec(r)
	}
	tmp := path + ".tmp"
	if err := writeFileSync(tmp, buf.Bytes()); err != nil {
		return nil, nil, 0, fmt.Errorf("serve: journal compact: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return nil, nil, 0, fmt.Errorf("serve: journal publish: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return nil, nil, 0, fmt.Errorf("serve: journal dir sync: %w", err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("serve: journal open: %w", err)
	}
	return &journal{path: path, f: f}, pending, maxSeq, nil
}

// replayJournal reads the WAL and reduces it to the unfinished admits (in
// file = admission order) and the highest sequence seen. A missing file is
// an empty journal. Only a torn final line is tolerated; corruption
// anywhere else is an error — silently skipping a record would break the
// exactly-once contract — and so is an admit whose id is not the one its
// sequence names or that an earlier admit already took: an id replayed
// twice, or issued again after maxSeq, would name two jobs.
func replayJournal(path string) ([]journalRecord, int, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("serve: journal read: %w", err)
	}
	return decodeJournal(data)
}

// decodeJournal is replayJournal on the file's bytes.
func decodeJournal(data []byte) ([]journalRecord, int, error) {
	lines := bytes.Split(data, []byte("\n"))
	var pending []journalRecord
	byID := make(map[string]int) // id → index into pending, -1 once finished
	maxSeq := 0
	for i, line := range lines {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var r journalRecord
		if err := json.Unmarshal(line, &r); err != nil {
			if i == len(lines)-1 {
				// Torn tail: the process died mid-append, after fsync of
				// everything before it. The record was never acknowledged.
				break
			}
			return nil, 0, fmt.Errorf("serve: journal corrupt at line %d: %v", i+1, err)
		}
		switch r.Type {
		case "meta":
			if r.Seq > maxSeq {
				maxSeq = r.Seq
			}
		case "admit":
			if r.ID == "" || len(r.Job) == 0 {
				return nil, 0, fmt.Errorf("serve: journal corrupt at line %d: admit without id/job", i+1)
			}
			if r.Seq <= 0 || r.ID != jobID(r.Seq) {
				return nil, 0, fmt.Errorf("serve: journal corrupt at line %d: admit %s at sequence %d", i+1, r.ID, r.Seq)
			}
			if _, dup := byID[r.ID]; dup {
				return nil, 0, fmt.Errorf("serve: journal corrupt at line %d: job %s admitted twice", i+1, r.ID)
			}
			if r.Seq > maxSeq {
				maxSeq = r.Seq
			}
			byID[r.ID] = len(pending)
			pending = append(pending, r)
		case "done":
			idx, ok := byID[r.ID]
			if !ok || idx < 0 {
				// A done for an unknown id can only follow compaction of a
				// crashed run that lost the admit — impossible given the
				// admit is fsync'd first. Treat as corruption.
				return nil, 0, fmt.Errorf("serve: journal corrupt at line %d: done for unknown job %s", i+1, r.ID)
			}
			pending[idx].Type = "" // tombstone
			byID[r.ID] = -1
		default:
			return nil, 0, fmt.Errorf("serve: journal corrupt at line %d: unknown record type %q", i+1, r.Type)
		}
	}
	// Squeeze out the tombstones, preserving admission order.
	out := pending[:0]
	for _, r := range pending {
		if r.Type == "admit" {
			out = append(out, r)
		}
	}
	return out, maxSeq, nil
}

// append writes one record and fsyncs it. An error means the record may or
// may not be durable; callers treat it as infrastructure failure.
func (j *journal) append(r journalRecord) error {
	b, err := json.Marshal(r)
	if err != nil {
		panic(fmt.Sprintf("serve: journal marshal: %v", err))
	}
	b = append(b, '\n')
	if _, err := j.f.Write(b); err != nil {
		return fmt.Errorf("serve: journal append: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("serve: journal sync: %w", err)
	}
	return nil
}

func (j *journal) close() error { return j.f.Close() }

// writeFileSync writes data to path and fsyncs the file before closing.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if _, err := w.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so a rename inside it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

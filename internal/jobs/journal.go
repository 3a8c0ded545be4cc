package jobs

// The write-ahead job journal: warr-serve's crash safety. Every
// journalable submission is appended (fsync'd) to an append-only
// JSON-lines file, its spec in Spec's own JSON form, before results
// exist and every terminal state follows it — so a process killed without warning can, on the next
// boot, replay the journal and re-run every job whose work was lost.
// The journaled spec is the checkpoint: jobs run on virtual time with
// seeded randomness, so re-running a spec rebuilds the same worlds and
// the same event stream (lineage, not a stored world).
//
// Format: one JSON object per line, distinguished by "rec":
//
//	{"rec":"boot"}                                — an epoch boundary, appended at every Open
//	{"rec":"submit","job":"job-3","spec":{...}}   — an accepted journalable submission
//	{"rec":"state","job":"job-3","state":"done"}  — a terminal state (with cause/error)
//	{"rec":"resumed","job":"job-3","as":"job-7"}  — job-3 continues as job-7
//	{"rec":"revived","ofEpoch":2,"job":"job-3"}   — a prior epoch's job-3 was resubmitted
//
// Job ids restart at job-1 every boot, so jobs are keyed by
// (epoch, id): the epoch is the count of boot records preceding the
// submit. Recovery revives a job when it was submitted, never reached a
// terminal state (or was cancelled by a drain), was not resumed as a
// newer job, and was not already revived by a previous boot.
//
// Journals written by older builds may also hold
// {"rec":"checkpoint","job":..,"image":..} lines: a base64 world image
// of a drain-cancelled replay. Recovery skips them like any unknown
// record, so such a job re-runs whole.
//
// A truncated or corrupted tail — the torn last write of a crash — is
// detected, warned about, and truncated away; it never panics and never
// poisons the records before it.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// journalable reports whether a spec survives the process boundary:
// custom oracles and injected grammars are closures-in-spirit and keep
// the job in-process only.
func journalable(spec Spec) bool {
	return spec.Oracle == nil && spec.Grammar == nil
}

// journalRecord is one journal line; Rec selects which fields are set.
type journalRecord struct {
	Rec     string `json:"rec"`
	Job     string `json:"job,omitempty"`
	Spec    *Spec  `json:"spec,omitempty"`
	State   string `json:"state,omitempty"`
	Cause   string `json:"cause,omitempty"`
	Error   string `json:"error,omitempty"`
	As      string `json:"as,omitempty"`
	OfEpoch int    `json:"ofEpoch,omitempty"`
}

// RecoveredJob is one journal-recovered job awaiting revival: the epoch
// and id it had, and its rebuilt spec.
type RecoveredJob struct {
	Epoch int
	ID    string
	Spec  Spec
}

// Journal is an open write-ahead job journal. All appends are fsync'd:
// a record returned to the caller survives SIGKILL.
type Journal struct {
	mu    sync.Mutex
	f     *os.File
	path  string
	epoch int
	logf  func(format string, args ...any)
}

// OpenJournal opens (creating if absent) the journal at path, replays
// its records, truncates any torn tail, appends the new epoch's boot
// record, and returns the journal plus the jobs recovery should revive,
// in their original submission order. Pass the recovered jobs to
// Engine.Revive once the engine is up.
func OpenJournal(path string, logf func(format string, args ...any)) (*Journal, []RecoveredJob, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("jobs: opening journal: %w", err)
	}
	j := &Journal{f: f, path: path, logf: logf}
	recovered, good, err := j.scan()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if fi, err := f.Stat(); err == nil && fi.Size() > good {
		j.warnf("jobs: journal %s: dropping torn tail (%d bytes past offset %d)", path, fi.Size()-good, good)
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("jobs: truncating journal tail: %w", err)
		}
	}
	if _, err := f.Seek(0, 2); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("jobs: seeking journal end: %w", err)
	}
	j.epoch++ // the epoch the boot record below begins
	if err := j.append(journalRecord{Rec: "boot"}); err != nil {
		f.Close()
		return nil, nil, err
	}
	return j, recovered, nil
}

// recState accumulates one (epoch, id)'s records during the scan.
type recState struct {
	epoch    int
	id       string
	spec     *Spec
	terminal string
	cause    string
	resumed  bool
	revived  bool
}

// scan reads the journal file and replays it with scanJournal, leaving
// the journal at the epoch its last boot record began.
func (j *Journal) scan() ([]RecoveredJob, int64, error) {
	data, err := os.ReadFile(j.path)
	if err != nil {
		return nil, 0, fmt.Errorf("jobs: reading journal: %w", err)
	}
	recovered, good, epoch := scanJournal(data, func(format string, args ...any) {
		j.warnf("jobs: journal %s: "+format, append([]any{j.path}, args...)...)
	})
	j.epoch = epoch
	return recovered, good, nil
}

// scanJournal replays journal bytes from the start. It returns the
// revivable jobs, the byte offset after the last well-formed record
// (anything past it is a torn write to be truncated) and the number of
// boot records before that offset. Records are read with a raw line
// splitter, not bufio.Scanner — the multi-KB checkpoint image lines
// older builds wrote blow straight through Scanner's default token
// limit.
func scanJournal(data []byte, warnf func(format string, args ...any)) (recovered []RecoveredJob, good int64, epoch int) {
	states := make(map[string]*recState)
	var order []*recState
	key := func(epoch int, id string) string { return fmt.Sprintf("%d/%s", epoch, id) }
	get := func(id string) *recState {
		k := key(epoch, id)
		st, ok := states[k]
		if !ok {
			st = &recState{epoch: epoch, id: id}
			states[k] = st
			order = append(order, st)
		}
		return st
	}
	for off := 0; off < len(data); {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			warnf("truncated record at offset %d", off)
			break
		}
		line := data[off : off+nl]
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			warnf("corrupted record at offset %d: %v", off, err)
			break
		}
		off += nl + 1
		good = int64(off)
		switch rec.Rec {
		case "boot":
			epoch++
		case "submit":
			st := get(rec.Job)
			st.spec = rec.Spec
		case "state":
			st := get(rec.Job)
			st.terminal, st.cause = rec.State, rec.Cause
		case "resumed":
			get(rec.Job).resumed = true
		case "revived":
			if st, ok := states[key(rec.OfEpoch, rec.Job)]; ok {
				st.revived = true
			}
		default:
			// Unknown record kinds from a newer build pass through; the
			// journal is forward-readable. An older build's checkpoint
			// record lands here too and is never decoded.
		}
	}
	for _, st := range order {
		if st.spec == nil || st.resumed || st.revived {
			continue
		}
		// A job with no terminal record died with the process; one
		// cancelled by a drain is explicitly parked to continue.
		if st.terminal != "" && !(st.terminal == StateCancelled.String() && st.cause == CauseDrained.Error()) {
			continue
		}
		recovered = append(recovered, RecoveredJob{
			Epoch: st.epoch,
			ID:    st.id,
			Spec:  *st.spec,
		})
	}
	return recovered, good, epoch
}

// append writes one record and fsyncs it; when append returns nil the
// record survives SIGKILL.
func (j *Journal) append(rec journalRecord) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("jobs: encoding journal record: %w", err)
	}
	line = append(line, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(line); err != nil {
		return fmt.Errorf("jobs: appending journal record: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("jobs: syncing journal: %w", err)
	}
	return nil
}

// note appends a record, downgrading failure to a warning: a sick disk
// must degrade durability, never job execution.
func (j *Journal) note(rec journalRecord) {
	if err := j.append(rec); err != nil {
		j.warnf("%v", err)
	}
}

func (j *Journal) warnf(format string, args ...any) {
	if j != nil && j.logf != nil {
		j.logf(format, args...)
	}
}

// Epoch returns the journal's current epoch (1-based; each Open begins
// a new one).
func (j *Journal) Epoch() int { return j.epoch }

// Close syncs and closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.f.Sync(); err != nil {
		j.f.Close()
		return err
	}
	return j.f.Close()
}

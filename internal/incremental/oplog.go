package incremental

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"entityres/internal/entity"
)

// OpKind enumerates streaming operations.
type OpKind int

const (
	// OpInsert adds a new description.
	OpInsert OpKind = iota
	// OpUpdate replaces the attributes of an existing description.
	OpUpdate
	// OpDelete removes an existing description.
	OpDelete
	// OpReconcile marks an effective deferred meta-blocking reconcile in a
	// durable resolver's journal. Reads mutate state under live
	// meta-blocking — matcher decisions are evaluated, cached and counted —
	// so the journal records them and recovery replays them, keeping
	// comparison counters and decision caches bit-exact across a crash.
	// OpReconcile never appears in URI operation logs (ReadOps rejects it).
	OpReconcile
	// OpBatch is a multi-op journal record: the sub-records of one
	// ApplyBatch call, journaled as a single append so crash recovery
	// replays the batch atomically or not at all. Like OpReconcile it is a
	// journal-only kind — it never appears in URI operation logs.
	OpBatch
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case OpInsert:
		return "insert"
	case OpUpdate:
		return "update"
	case OpDelete:
		return "delete"
	case OpReconcile:
		return "reconcile"
	case OpBatch:
		return "batch"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Op is one streaming operation addressed by URI — the exchange form of the
// operation log that erctl watch replays. Handle-level callers use the
// Resolver methods directly.
type Op struct {
	Kind   OpKind
	URI    string
	Source int
	// Attrs is the full attribute set of the description (insert, update).
	Attrs []entity.Attribute
}

// Apply executes one URI-addressed operation on the resolver.
func (r *Resolver) Apply(ctx context.Context, op Op) error {
	switch op.Kind {
	case OpInsert:
		d := &entity.Description{ID: -1, URI: op.URI, Source: op.Source, Attrs: op.Attrs}
		_, err := r.Insert(ctx, d)
		return err
	case OpUpdate:
		id, ok := r.Lookup(op.URI)
		if !ok {
			return fmt.Errorf("incremental: update of unknown URI %q", op.URI)
		}
		return r.Update(ctx, id, op.Attrs)
	case OpDelete:
		id, ok := r.Lookup(op.URI)
		if !ok {
			return fmt.Errorf("incremental: delete of unknown URI %q", op.URI)
		}
		return r.Delete(ctx, id)
	default:
		return fmt.Errorf("incremental: unknown op kind %v", op.Kind)
	}
}

// opJSON is the wire form of an Op: one JSON object per line.
type opJSON struct {
	Op     string     `json:"op"`
	URI    string     `json:"uri"`
	Source int        `json:"source,omitempty"`
	Attrs  []attrJSON `json:"attrs,omitempty"`
}

type attrJSON struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

func attrsToJSON(attrs []entity.Attribute) []attrJSON {
	var out []attrJSON
	for _, a := range attrs {
		out = append(out, attrJSON{Name: a.Name, Value: a.Value})
	}
	return out
}

func attrsFromJSON(attrs []attrJSON) []entity.Attribute {
	var out []entity.Attribute
	for _, a := range attrs {
		out = append(out, entity.Attribute{Name: a.Name, Value: a.Value})
	}
	return out
}

// WriteOps serializes operations as JSON lines through a buffered writer.
// The buffer is flushed — and the flush error checked — on every return
// path, including an early return from a mid-stream encoding failure, so a
// sink error can never be silently swallowed by buffering.
func WriteOps(w io.Writer, ops []Op) (err error) {
	bw := bufio.NewWriter(w)
	defer func() {
		if ferr := bw.Flush(); ferr != nil && err == nil {
			err = fmt.Errorf("incremental: flushing ops: %w", ferr)
		}
	}()
	enc := json.NewEncoder(bw)
	for i, op := range ops {
		j := opJSON{Op: op.Kind.String(), URI: op.URI, Source: op.Source, Attrs: attrsToJSON(op.Attrs)}
		if err := enc.Encode(j); err != nil {
			return fmt.Errorf("incremental: op %d: %w", i, err)
		}
	}
	return nil
}

// ReadOps parses a JSON-lines operation log. Blank lines and lines starting
// with '#' are skipped.
func ReadOps(r io.Reader) ([]Op, error) {
	var out []Op
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var j opJSON
		if err := json.Unmarshal([]byte(line), &j); err != nil {
			return nil, fmt.Errorf("incremental: ops line %d: %w", lineNo, err)
		}
		op := Op{URI: j.URI, Source: j.Source, Attrs: attrsFromJSON(j.Attrs)}
		switch j.Op {
		case "insert":
			op.Kind = OpInsert
		case "update":
			op.Kind = OpUpdate
		case "delete":
			op.Kind = OpDelete
		default:
			return nil, fmt.Errorf("incremental: ops line %d: unknown op %q", lineNo, j.Op)
		}
		out = append(out, op)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("incremental: %w", err)
	}
	return out, nil
}

package trace

import (
	"encoding/json"
	"io"
	"strconv"
)

// Chrome trace-event export: the session serializes as the JSON Object
// Format of the Trace Event spec, so any run opens directly in
// chrome://tracing or Perfetto (ui.perfetto.dev).
//
// Mapping: one Chrome "process" per recorder (per simulation), one "thread"
// per PE plus two synthetic tracks — one for device/unit contexts and one
// for the shared bus, so bus occupancy renders as a serialized timeline.
// One trace microsecond equals one bus-clock cycle (10 ns of simulated
// time); durations therefore read directly in cycles.
//
// The export is deterministic: events are written in recording order,
// counters in sorted-key order, and all encoding goes through struct types
// with fixed field order — identical runs produce byte-identical files.

// Synthetic thread ids. PEs use their index (0..n) directly.
const (
	// DeviceTID hosts device/timer/unit contexts (sim procs with PE -1).
	DeviceTID = 50
	// BusTID hosts bus occupancy events, serialized like the bus itself.
	BusTID = 60
)

type chromeEvent struct {
	Name string      `json:"name"`
	Cat  string      `json:"cat"`
	Ph   string      `json:"ph"`
	Ts   uint64      `json:"ts"`
	Dur  uint64      `json:"dur,omitempty"`
	Pid  int         `json:"pid"`
	Tid  int         `json:"tid"`
	S    string      `json:"s,omitempty"`
	Args *chromeArgs `json:"args,omitempty"`
}

type chromeArgs struct {
	// Name is only used by metadata (process_name/thread_name) events.
	Name       string `json:"name,omitempty"`
	PE         *int   `json:"pe,omitempty"`
	Proc       string `json:"proc,omitempty"`
	Words      int    `json:"words,omitempty"`
	WaitCycles uint64 `json:"wait_cycles,omitempty"`
	ID         *int64 `json:"id,omitempty"`
	Verdict    string `json:"verdict,omitempty"`
}

type chromeFile struct {
	Events          []chromeEvent        `json:"traceEvents"`
	DisplayTimeUnit string               `json:"displayTimeUnit"`
	OtherData       map[string]countersT `json:"otherData"`
}

// countersT is serialized with sorted keys by encoding/json, keeping the
// export deterministic.
type countersT map[string]uint64

// tid maps an event to its Chrome thread track.
func tid(ev Event) int {
	if ev.Kind == KindBus {
		return BusTID
	}
	if ev.PE < 0 {
		return DeviceTID
	}
	return ev.PE
}

// WriteChromeTrace writes the whole session as Chrome trace-event JSON.
func (s *Session) WriteChromeTrace(w io.Writer) error {
	var out chromeFile
	out.Events = []chromeEvent{} // "traceEvents":[] even when empty, never null
	out.DisplayTimeUnit = "ms"
	out.OtherData = map[string]countersT{}
	for pid, r := range s.recorders {
		out.OtherData[r.Label] = r.Counters()
		out.Events = append(out.Events, chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid, Cat: "__metadata",
			Args: &chromeArgs{Name: r.Label},
		})
		// Name every thread track seen in this recorder's events.
		seen := map[int]bool{}
		for _, ev := range r.events {
			t := tid(ev)
			if seen[t] {
				continue
			}
			seen[t] = true
			name := ""
			switch {
			case t == BusTID:
				name = "bus"
			case t == DeviceTID:
				name = "devices"
			default:
				name = "PE" + strconv.Itoa(t)
			}
			out.Events = append(out.Events, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: t, Cat: "__metadata",
				Args: &chromeArgs{Name: name},
			})
		}
		for _, ev := range r.events {
			ce := chromeEvent{
				Name: ev.Name,
				Cat:  ev.Kind.String(),
				Ts:   ev.Cycle,
				Pid:  pid,
				Tid:  tid(ev),
			}
			args := chromeArgs{Proc: ev.Proc, Words: ev.Words, WaitCycles: ev.Wait, Verdict: ev.Verdict}
			if ev.Kind == KindBus {
				pe := ev.PE
				args.PE = &pe
			}
			if ev.Arg != -1 && (ev.Kind == KindLock || ev.Kind == KindAlloc) {
				id := ev.Arg
				args.ID = &id
			}
			ce.Args = &args
			if ev.Dur > 0 {
				ce.Ph = "X"
				ce.Dur = ev.Dur
			} else {
				ce.Ph = "i"
				ce.S = "t"
			}
			out.Events = append(out.Events, ce)
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&out)
}

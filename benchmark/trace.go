package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"slices"
)

// Span names, in the order they are reported.
const (
	spanMsg       = "msg"
	spanConstruct = "core.construct"
	spanPublish   = "ros.publish_call"
	spanTransit   = "ros.transit"
	spanCallback  = "ros.callback"
	spanRelease   = "core.release"
)

var spanNames = [...]string{spanMsg, spanConstruct, spanPublish, spanTransit, spanCallback, spanRelease}

// span is one timed interval of one message. Parent names the span of
// the same message that caused it; msg is the root.
type span struct {
	Name   string
	Start  int64 // ns since the harness started
	End    int64
	Parent string
	MsgID  uint32 // Header.Seq
}

// spansOf turns one record into the message's spans. The publisher-side
// boundaries tile creation -> Publish return; what follows depends on
// where the callback ran. Over a transport it runs on the subscriber's
// goroutine after Publish returned: transit spans that gap and the
// publisher's release falls inside it. In-process the callback runs
// inside Publish: it is a child of the publish call, transit is empty,
// and release follows on the publisher goroutine.
func spansOf(r *record, buf []span) []span {
	t0 := r.t0.Load()
	id := r.pubSeq
	inside := r.cb0 <= r.t2
	transitEnd, cbParent, relParent := r.cb0, spanMsg, spanTransit
	if inside {
		transitEnd, cbParent, relParent = r.t2, spanPublish, spanMsg
	}
	return append(buf[:0],
		span{Name: spanMsg, Start: t0, End: max(r.cb1, r.t3), MsgID: id},
		span{Name: spanConstruct, Start: t0, End: r.t1, Parent: spanMsg, MsgID: id},
		span{Name: spanPublish, Start: r.t1, End: r.t2, Parent: spanMsg, MsgID: id},
		span{Name: spanTransit, Start: r.t2, End: transitEnd, Parent: spanMsg, MsgID: id},
		span{Name: spanCallback, Start: r.cb0, End: r.cb1, Parent: cbParent, MsgID: id},
		span{Name: spanRelease, Start: r.t2, End: r.t3, Parent: relParent, MsgID: id},
	)
}

// selfTime is a span's duration minus the part of its interval that its
// child spans cover.
func selfTime(spans []span, i int) int64 {
	s := &spans[i]
	type iv struct{ a, b int64 }
	var kids [len(spanNames)]iv
	n := 0
	for _, c := range spans {
		a, b := max(c.Start, s.Start), min(c.End, s.End)
		if c.Parent == s.Name && b > a {
			kids[n] = iv{a, b}
			n++
		}
	}
	slices.SortFunc(kids[:n], func(x, y iv) int { return int(x.a - y.a) })
	covered, edge := int64(0), s.Start
	for _, k := range kids[:n] {
		if k.b > edge {
			covered += k.b - max(k.a, edge)
			edge = k.b
		}
	}
	return s.End - s.Start - covered
}

// traceSummary is what the traced window's spans reduce to.
type traceSummary struct {
	messages     int                // records complete on both sides
	durUs        map[string]float64 // median span duration
	selfUs       map[string]float64 // median self time
	selfSumShare float64            // median over messages of (sum of self times) / msg duration
}

// summarizeTrace walks the records the traced window left in the ring,
// writes their spans to path, and reduces them to medians.
func summarizeTrace(h *harness, w windowResult, path string) (traceSummary, error) {
	first := max(w.firstSeq, w.lastSeq-min(w.lastSeq, recRing-1))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return traceSummary{}, err
	}
	f, err := os.Create(path)
	if err != nil {
		return traceSummary{}, err
	}
	out := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprint(out, "[")

	dur := map[string][]int64{}
	self := map[string][]int64{}
	var share []float64
	var buf []span
	sep := "\n"
	for seq := first; seq <= w.lastSeq; seq++ {
		r := &h.recs[seq%recRing]
		if r.pubSeq != seq || r.cbSeq != seq {
			continue // publish failed or the delivery never came
		}
		buf = spansOf(r, buf)
		var selfSum int64
		for i, s := range buf {
			fmt.Fprintf(out, `%s{"name":%q,"start_ns":%d,"end_ns":%d,"parent":%q,"msg_id":%d}`,
				sep, s.Name, s.Start, s.End, s.Parent, s.MsgID)
			sep = ",\n"
			st := selfTime(buf, i)
			selfSum += st
			dur[s.Name] = append(dur[s.Name], s.End-s.Start)
			self[s.Name] = append(self[s.Name], st)
		}
		if d := buf[0].End - buf[0].Start; d > 0 {
			share = append(share, float64(selfSum)/float64(d))
		}
	}
	fmt.Fprint(out, "\n]\n")
	if err := out.Flush(); err != nil {
		f.Close()
		return traceSummary{}, err
	}
	if err := f.Close(); err != nil {
		return traceSummary{}, err
	}

	sum := traceSummary{messages: len(share), durUs: map[string]float64{}, selfUs: map[string]float64{},
		selfSumShare: medianOf(share)}
	for _, name := range spanNames {
		slices.Sort(dur[name])
		slices.Sort(self[name])
		sum.durUs[name] = us(quantile(dur[name], 0.5))
		sum.selfUs[name] = us(quantile(self[name], 0.5))
	}
	return sum, nil
}

package main

import "testing"

// The generator's loop, with a daemon that accounts datagrams a few at
// a time and late: the window must never hold more than its limit and
// everything must get through.
func TestCreditWindowNeverExceedsLimit(t *testing.T) {
	const total = 10000
	w := creditWindow{limit: maxInFlight}
	var accounted uint64 // the fake daemon's counter
	polls := 0
	for w.sent < total {
		for !w.canSend() {
			// The daemon gets through 1..7 datagrams between polls.
			accounted = min(accounted+uint64(1+polls%7), w.sent)
			polls++
			w.ack(accounted)
		}
		w.sent++
		if inFlight := w.sent - w.acked; inFlight > maxInFlight {
			t.Fatalf("%d datagrams in flight after send %d, limit %d", inFlight, w.sent, maxInFlight)
		}
	}
	if w.ack(accounted) {
		t.Fatal("ack reported progress without any")
	}
	if !w.ack(total) || w.canSend() != true || w.sent-w.acked != 0 {
		t.Fatalf("window did not drain: sent %d acked %d", w.sent, w.acked)
	}
}

func TestSumSeries(t *testing.T) {
	page := "# TYPE x_sum counter\n" +
		"x_sum{link=\"a\"} 1.5\n" +
		"x_sum{link=\"b\"} 2\n" +
		"x_sum_total 100\n" +
		"x_sum 0.25\n"
	if got := sumSeries(page, "x_sum"); got != 3.75 {
		t.Fatalf("sumSeries = %v, want 3.75", got)
	}
}

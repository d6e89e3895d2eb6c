// Package pipeline exercises the ctxselect analyzer: goroutines in
// the concurrency-bearing packages must keep channel sends
// cancellable.
package pipeline

import "context"

// fanOutLeaky sends on a bounded channel with no escape hatch: once
// the consumer stops reading, every worker parks forever.
func fanOutLeaky(ctx context.Context, work []int) <-chan int {
	out := make(chan int, 4)
	for _, w := range work {
		go func(w int) {
			out <- w * w // want "without selecting on ctx.Done"
		}(w)
	}
	return out
}

// fanOutCancellable is the required shape: cancellation unblocks the
// send.
func fanOutCancellable(ctx context.Context, work []int) <-chan int {
	out := make(chan int, 4)
	for _, w := range work {
		go func(w int) {
			select {
			case out <- w * w:
			case <-ctx.Done():
			}
		}(w)
	}
	return out
}

// ownerCloses sends on a channel this same goroutine closes: it is
// the owning producer.
func ownerCloses(work []int) <-chan int {
	out := make(chan int)
	go func() {
		defer close(out)
		for _, w := range work {
			out <- w
		}
	}()
	return out
}

// sizedToWorkload sends on a buffer sized to the total send count.
// No send blocks while the buffer holds, but the analyzer does not
// prove that, so the send still needs a cancel case or an owner.
func sizedToWorkload(work []int) <-chan int {
	out := make(chan int, len(work))
	go func() {
		for _, w := range work {
			out <- w // want "without selecting on ctx.Done"
		}
	}()
	return out
}

// selectNoCancel blocks in a select that cancellation cannot reach.
func selectNoCancel(a, b chan int) {
	go func() {
		select {
		case a <- 1: // want "without selecting on ctx.Done"
		case b <- 2: // want "without selecting on ctx.Done"
		}
	}()
}

// nonBlockingSend is a select with a default clause: it never parks.
func nonBlockingSend(a chan int) {
	go func() {
		select {
		case a <- 1:
		default:
		}
	}()
}

// stopChannel accepts any shutdown-named channel as the cancel case.
func stopChannel(work []int, stop <-chan struct{}) <-chan int {
	out := make(chan int, 4)
	go func() {
		for _, w := range work {
			select {
			case out <- w:
			case <-stop:
				return
			}
		}
	}()
	return out
}

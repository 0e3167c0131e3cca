package cost

import "testing"

func TestZeroModelIsAllZero(t *testing.T) {
	if Zero != (Model{}) {
		t.Fatalf("Zero model has non-zero fields: %+v", Zero)
	}
}

func TestDefaultModelOrdering(t *testing.T) {
	// Sanity of the calibration: signals cost more than syscalls,
	// syscalls more than faults, faults more than VMA bookkeeping.
	if !(Default.SignalDelivery > Default.SyscallEntry) {
		t.Errorf("SignalDelivery (%v) should exceed SyscallEntry (%v)", Default.SignalDelivery, Default.SyscallEntry)
	}
	if !(Default.SyscallEntry > Default.PageFault) {
		t.Errorf("SyscallEntry (%v) should exceed PageFault (%v)", Default.SyscallEntry, Default.PageFault)
	}
	if !(Default.PageFault > Default.VMAOp) {
		t.Errorf("PageFault (%v) should exceed VMAOp (%v)", Default.PageFault, Default.VMAOp)
	}
}

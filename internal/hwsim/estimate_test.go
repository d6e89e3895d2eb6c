package hwsim

import (
	"testing"
)

func TestEstimateValidation(t *testing.T) {
	ix0, ix1 := testIndexes(t, 2, 2, 60, 4)
	d := deviceFor(t, ix0, 64, 1, 20)
	if _, err := d.EstimateStep2(ix0, ix1, -1); err == nil {
		t.Error("negative record count accepted")
	}
}

func TestEstimateFewerRecordsLessTraffic(t *testing.T) {
	ix0, ix1 := testIndexes(t, 4, 6, 120, 6)
	d := deviceFor(t, ix0, 64, 1, 20)
	many, err := d.EstimateStep2(ix0, ix1, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	few, err := d.EstimateStep2(ix0, ix1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if few.BytesFromDev >= many.BytesFromDev {
		t.Error("record count did not change result traffic")
	}
	if few.ComputeSeconds != many.ComputeSeconds {
		t.Error("record count should not change compute time")
	}
}

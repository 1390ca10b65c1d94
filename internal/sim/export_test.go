package sim

// OnReadColumns returns how many route columns Snapshots have computed on
// read so far in this process.
func OnReadColumns() int64 { return onReadColumns.Load() }

// EagerColumns returns how many of the Snapshot's route columns its
// simulation computed, and how many prefixes its table has.
func EagerColumns(s *Snapshot) (computed, total int) {
	for _, col := range s.cols {
		if col != nil {
			computed++
		}
	}
	return computed, len(s.cols)
}

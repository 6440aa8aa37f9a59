//go:build race

package mapreduce

func init() { raceDetector = true }

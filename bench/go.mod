module gem5prof/bench

go 1.22

require gem5prof v0.0.0

replace gem5prof => ../

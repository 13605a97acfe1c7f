module evmatching/bench

go 1.22

require evmatching v0.0.0

replace evmatching => ../

module looppoint/bench

go 1.22

require looppoint v0.0.0

replace looppoint => ../

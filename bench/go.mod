module nntstream/bench

go 1.22

require nntstream v0.0.0

replace nntstream => ../

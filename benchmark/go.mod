module persistbarriers/benchmark

go 1.24

require persistbarriers v0.0.0

replace persistbarriers => ../

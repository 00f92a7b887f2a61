module cloudmirror/bench

go 1.24

require cloudmirror v0.0.0

replace cloudmirror => ../

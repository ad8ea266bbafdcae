module xtq/bench

go 1.22

require xtq v0.0.0

replace xtq => ../

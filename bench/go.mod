module loglens/bench

go 1.22

require loglens v0.0.0

replace loglens => ../

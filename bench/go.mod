module github.com/warwick-hpsc/tealeaf-go/bench

go 1.22

require github.com/warwick-hpsc/tealeaf-go v0.0.0

replace github.com/warwick-hpsc/tealeaf-go => ../

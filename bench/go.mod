module astrea/bench

go 1.22

require astrea v0.0.0

replace astrea => ../

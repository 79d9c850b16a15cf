module stochroute/bench

go 1.24

require stochroute v0.0.0

replace stochroute => ../

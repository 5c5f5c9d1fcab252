module autoscale/bench

go 1.23.0

require autoscale v0.0.0

replace autoscale => ../

module moc/benchmark

go 1.22

require moc v0.0.0

replace moc => ../

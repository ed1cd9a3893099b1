module pvmigrate

go 1.23

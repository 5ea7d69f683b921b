int a ;
int @ ;
int b = c ;
